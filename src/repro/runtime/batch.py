"""What a batch function may use of the run executing its chunk.

:func:`~repro.runtime.parallel.run_cells` calls the function of every
chunk of batched cells with a :class:`BatchContext`, whose
:meth:`~BatchContext.map` fans the function's own independent tasks
(an assessment grid's posterior evaluations) over a process pool under
the rules the per-cell path keeps.  ``run_cells`` imports this module
when it runs its first chunk, so a process that only imports the
experiment layer does not compile it at start-up.
"""

import os
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.runtime.parallel import (
    CellSpec,
    describe_cell,
    record_pool_gauges,
    run_inline,
    run_pooled,
)


def _call_timed(
    payload: Tuple[Callable[..., Any], Tuple[Any, ...]]
) -> Tuple[Any, float, float]:
    """``fn(*args)`` of a ``(fn, args)`` task, timed like a cell."""
    fn, args = payload
    started = time.perf_counter()
    value = fn(*args)
    return value, started, time.perf_counter() - started


class BatchContext:
    """What a batch function may use of the run executing its chunk.

    Attributes
    ----------
    metrics:
        The run's registry, or ``None``.
    jobs:
        The run's resolved ``--jobs``.
    cells:
        The chunk's ``(grid index, cell)`` pairs in chunk order, which
        name the cells a failed task served.
    """

    __slots__ = ("metrics", "jobs", "cells")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        jobs: int = 1,
        cells: Sequence[Tuple[int, CellSpec]] = (),
    ):
        self.metrics = metrics
        self.jobs = jobs
        self.cells = cells

    def map(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[Tuple[Any, ...]],
        serves: Sequence[Sequence[int]],
    ) -> List[Any]:
        """``fn(*task)`` for every task, results in task order.

        *fn* must be module-level and the tasks picklable.  With
        ``jobs > 1``, more than one task and more than one CPU the
        tasks fan over a fresh pool of ``min(jobs, tasks)`` workers,
        submitted in order; otherwise they run inline, in order.
        ``serves[i]`` lists the chunk positions of the cells task *i*
        works for: an exception a task raises carries a note naming
        them, and a worker that dies raises
        :class:`~repro.common.errors.WorkerCrashError` naming the cells
        of every unfinished task.  Tasks are not cells: no cell counter
        sees them.  With a registry attached, ``pool.jobs`` and
        ``pool.utilization`` describe the tasks' execution.
        """
        results: List[Any] = [None] * len(tasks)
        timings: List[Tuple[float, float]] = []

        def describe(task: int) -> str:
            return f"task {task} of a batched chunk, serving " + ", ".join(
                describe_cell(self.cells[position][1], self.cells[position][0])
                for position in serves[task]
            )

        def unpack(task: int, outcome: Any) -> None:
            value, started, elapsed = outcome
            results[task] = value
            timings.append((started, elapsed))

        payloads = [(fn, task) for task in tasks]
        order = range(len(tasks))
        batch_started = time.perf_counter()
        workers = 1
        if self.jobs <= 1 or len(tasks) <= 1 or (os.cpu_count() or 1) <= 1:
            run_inline(order, _call_timed, payloads, describe, unpack)
        else:
            workers = run_pooled(
                order, _call_timed, payloads, describe, unpack,
                min(self.jobs, len(tasks)), "task",
            )
        if self.metrics is not None and timings:
            record_pool_gauges(self.metrics, timings, batch_started, workers)
        return results
