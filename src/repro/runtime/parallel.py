"""Process-pool execution of independent experiment cells.

An experiment grid (Tables 5-6, the calibration sweep, the Fig-7/8
assessment trajectories, ...) is a list of *cells*: pure functions of
their parameters, independent of one another.  :func:`run_cells` executes
such a list either inline (``jobs=1``) or fanned across a process pool
— whenever ``jobs > 1``, more than one cell is pending and the host has
more than one CPU — with these guarantees:

* **determinism** — every cell derives its randomness from an explicit
  seed in its kwargs (derived per cell via
  :meth:`~repro.common.seeding.SeedSequenceFactory.child_seed`), so
  results are bit-identical for any ``jobs`` value;
* **ordering** — cells are submitted in grid order and their results
  come back in grid order, whatever order they complete in;
* **caching** — cells carrying a key are looked up in / written back to
  a :class:`~repro.runtime.cache.ResultCache` when one is supplied;
* **resumability** — with a :class:`~repro.store.RunStore` attached,
  every completed cell's (or batched chunk's) result is committed to its
  stream file *as it finishes* (not at batch end), and cells whose file
  is already committed are discovered and skipped
  (``store.resume_skipped_cells``, ``store.batch_resume_skipped_cells``)
  — so a grid interrupted after k cells resumes from the store and
  finishes bit-identical to an uninterrupted run;
* **named faults** — an exception raised by a cell keeps its type and
  carries a note naming the cell (Python 3.11+); a pool worker that
  dies raises :class:`~repro.common.errors.WorkerCrashError` naming
  every cell left unfinished.

Cells carrying a :class:`BatchSpec` run first, a chunk at a time, as
one call to their batch function; a
:class:`~repro.runtime.batch.BatchContext` lets that function fan its
own independent tasks over the pool under the same rules (a faulting
task names the cells it served), so no module of the experiment layer
calls :func:`run_cells` itself.  :func:`run_inline`,
:func:`run_pooled` and :func:`record_pool_gauges` are the execution
steps both share.

Cell functions must be module-level (picklable) and their kwargs and
results picklable; everything in the experiment layer already is.
"""

import multiprocessing
import os
import sys
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.errors import ConfigurationError, WorkerCrashError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.cache import ResultCache
from repro.store.log import RunStore

if TYPE_CHECKING:
    from repro.runtime.batch import BatchContext


@dataclass(frozen=True)
class BatchSpec:
    """How a cell may be fused into a batched group execution.

    *fn* takes the kwargs dicts of a whole group of cells and the
    chunk's :class:`~repro.runtime.batch.BatchContext` (the run's
    metrics registry, its ``jobs`` and a way to fan independent tasks
    over the pool), and returns their results in order.  Cells fuse only
    with cells sharing the same ``(fn, group)`` pair, so *group* must
    carry everything that must be homogeneous across a fused batch
    (mode, release count, workload shape).  A grid's builder attaches a
    batch spec only to cells *fn* can resolve, so the decision is made
    once, when the grid is built; *fn* never declines a group.
    """

    fn: Callable[[List[Dict[str, Any]], "BatchContext"], List[Any]]
    group: Tuple[Any, ...]


@dataclass(frozen=True)
class CellSpec:
    """One independent unit of experiment work.

    Attributes
    ----------
    experiment:
        Grid name, used as the cache namespace (``table5``, ...).
    fn:
        Module-level function computing the cell.
    kwargs:
        Keyword arguments for *fn* (must pickle for ``jobs > 1``).
    key:
        Cache key parts — primitives identifying the cell, typically
        (params, requests, seed).  ``None`` exempts the cell from
        caching.
    batch:
        Optional :class:`BatchSpec` declaring the cell fusable into a
        batched group execution; ``None`` keeps the cell on the
        per-cell path.
    """

    experiment: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    key: Optional[Mapping[str, Any]] = None
    batch: Optional[BatchSpec] = None

    def __post_init__(self) -> None:
        # A live Generator in cell kwargs would be consumed in whatever
        # order the pool schedules cells — the exact stream-sharing bug
        # REPRO202 flags statically.  Cells must take an integer seed
        # and spawn their own generator inside the cell function.
        for name, value in self.kwargs.items():
            if isinstance(value, np.random.Generator):
                raise ConfigurationError(
                    f"cell kwarg {name!r} is a numpy Generator: cells "
                    f"must receive integer seeds, not live RNG streams "
                    f"(REPRO202)"
                )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value; ``None``/``0`` means all CPUs.

    A negative value is a :class:`ConfigurationError`.
    """
    if jobs is not None and jobs < 0:
        raise ConfigurationError(
            f"jobs must be >= 0 (0 = all CPUs), got {jobs}"
        )
    if not jobs:
        return os.cpu_count() or 1
    return int(jobs)

#: Ceiling on cells fused into one batched execution (and hence one
#: store commit).  Bounds both the script arena (a chunk of C cells
#: holds at most C×rows×(2×releases+1) float64/int64 values: T1, one
#: T2 slab per release and the outcome-code block, one row per
#: distinct script) and the resume grain: a
#: killed run loses at most one chunk's worth of work.  It is a
#: multiple of the three TimeOut cells of a Table 5/6 run, so a chunk
#: boundary never splits a run, whose cells share one script: a cell
#: list of whole runs draws each script once.  The resolver's
#: temporaries do not grow with C: the release-major parallel kernel
#: walks the chunk in blocks of whole cells of at most
#: :data:`repro.runtime.columnar.KERNEL_BLOCK_ROWS` rows.  The
#: ``REPRO_BATCH_MAX_CELLS`` environment variable overrides it (the
#: resume harness uses a small value to force chunk boundaries inside
#: small grids); a value that is not a positive integer is an error.
BATCH_MAX_CELLS = 63


def _batch_chunk_limit() -> int:
    env = os.environ.get("REPRO_BATCH_MAX_CELLS")
    if not env:
        return BATCH_MAX_CELLS
    message = f"REPRO_BATCH_MAX_CELLS must be a positive integer, got {env!r}"
    try:
        limit = int(env)
    except ValueError:
        raise ConfigurationError(message) from None
    if limit < 1:
        raise ConfigurationError(message)
    return limit


def _execute_cell_timed(spec: CellSpec) -> Tuple[Any, float, float]:
    """Run a cell and report ``(value, started, elapsed)``.

    Host timing is legitimate here: these numbers describe the *host's*
    execution of a cell, never anything inside the simulated world
    (repro.runtime is outside the repro.lint wall-clock scopes).  They
    come from ``time.perf_counter`` — CLOCK_MONOTONIC on Linux, which
    forked workers share with the parent — so a wall-clock step during
    a grid cannot skew cell times, queue waits or utilization.
    """
    started = time.perf_counter()
    value = spec.fn(**spec.kwargs)
    return value, started, time.perf_counter() - started


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork shares the already-imported interpreter with workers — much
    # cheaper than spawn and safe here (workers only compute pure cells).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def describe_cell(spec: CellSpec, index: int) -> str:
    """How a fault names cell *index*: its experiment, index and key."""
    return f"cell {index} of {spec.experiment!r} (key {spec.key!r})"


def _note(error: BaseException, where: str) -> None:
    """Note on *error* where it was raised (notes need Python 3.11+)."""
    if sys.version_info >= (3, 11):
        error.add_note(f"raised in {where}")


def _collect(
    futures: Dict[Future[Any], int],
    describe: Callable[[int], str],
    unpack: Callable[[int, Any], None],
    noun: str,
) -> None:
    """Hand every pooled result to *unpack* as it completes.

    An exception is re-raised with a note naming (*describe*) what
    raised it.  A dead worker breaks the whole pool: the results that
    did come back are still handed over, then :class:`WorkerCrashError`
    names every other *noun*.  Whatever ends the collection early (a
    fault, an interrupt) cancels the work not yet started, so the
    pool's shutdown waits only for the running ones.
    """
    pending = dict(futures)
    try:
        for future in as_completed(futures):
            index = pending.pop(future)
            try:
                outcome = future.result()
            except BrokenProcessPool as error:
                lost = [index]
                for other, other_index in pending.items():
                    if other.exception() is None:
                        unpack(other_index, other.result())
                    else:
                        lost.append(other_index)
                raise WorkerCrashError(
                    f"a pool worker died before {len(lost)} {noun}(s) "
                    "finished: "
                    + "; ".join(describe(i) for i in sorted(lost))
                ) from error
            except Exception as error:
                _note(error, describe(index))
                raise
            unpack(index, outcome)
    finally:
        for future in pending:
            future.cancel()


def run_inline(
    indices: Sequence[int],
    call: Callable[[Any], Any],
    payloads: Sequence[Any],
    describe: Callable[[int], str],
    unpack: Callable[[int, Any], None],
) -> None:
    """Run ``call(payloads[i])`` for every *i* in *indices*, in order.

    An exception is re-raised with a note naming (*describe*) what
    raised it.
    """
    for index in indices:
        try:
            outcome = call(payloads[index])
        except Exception as error:
            _note(error, describe(index))
            raise
        unpack(index, outcome)


def run_pooled(
    order: Sequence[int],
    call: Callable[[Any], Any],
    payloads: Sequence[Any],
    describe: Callable[[int], str],
    unpack: Callable[[int, Any], None],
    workers: int,
    noun: str,
) -> int:
    """Run ``call(payloads[i])`` for every *i*, submitted in *order*, on
    a pool of *workers*; return the workers used.

    *call* must be module-level and the payloads picklable.  If the
    platform cannot provide a process pool, the work runs inline in
    index order with a warning, on one worker.
    """
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        )
    except OSError as error:
        warnings.warn(
            f"process pool unavailable ({error!r}); "
            f"running {len(order)} {noun}s inline",
            RuntimeWarning,
            stacklevel=3,
        )
        run_inline(sorted(order), call, payloads, describe, unpack)
        return 1
    with pool:
        futures = {pool.submit(call, payloads[index]): index for index in order}
        _collect(futures, describe, unpack, noun)
    return workers


def record_pool_gauges(
    metrics: MetricsRegistry,
    timings: Sequence[Tuple[float, float]],
    batch_started: float,
    workers: int,
) -> None:
    """Record ``pool.jobs`` and ``pool.utilization`` — busy
    worker-seconds over *workers* x the span from *batch_started* to
    the last finish — for work timed as ``(started, elapsed)``."""
    metrics.gauge("pool.jobs").set(float(workers))
    span = max(started + elapsed for started, elapsed in timings) - batch_started
    if span > 0.0:
        busy = 0.0
        for _started, elapsed in timings:
            busy += elapsed
        metrics.gauge("pool.utilization").set(busy / (workers * span))


def _run_batched(
    cells: Sequence[CellSpec],
    todo: List[int],
    results: List[Any],
    cache: Optional[ResultCache],
    metrics: Optional[MetricsRegistry],
    store: Optional[RunStore],
    jobs: int,
) -> List[int]:
    """Execute fusable cells group by group; return the other cells of
    *todo*, which take the per-cell path.

    Pending cells carrying a :class:`BatchSpec` are partitioned by their
    ``(fn, group)`` pair in first-appearance order, each partition is
    chunked to at most :data:`BATCH_MAX_CELLS` cells (grid order — so
    chunk membership is deterministic and a resumed run reconstructs the
    same chunks), and each chunk runs as one call to the batch function,
    in the parent, with a :class:`~repro.runtime.batch.BatchContext`
    through which it may fan tasks over a pool of up to *jobs* workers.
    Results land in the cache via one :meth:`ResultCache.put_many` and
    in the store via one fsync'd
    :meth:`~repro.store.log.RunStore.commit_group_results` per chunk —
    the batched durability grain.  A chunk whose group file is already
    committed is served from the store without executing
    (``store.batch_resume_skipped_cells``).
    """
    groups: Dict[Tuple[Any, ...], List[int]] = {}
    per_cell: List[int] = []
    for index in todo:
        batch = cells[index].batch
        if batch is None:
            per_cell.append(index)
        else:
            groups.setdefault((batch.fn, batch.group), []).append(index)
    if not groups:
        return per_cell
    from repro.runtime.batch import BatchContext

    limit = _batch_chunk_limit()
    for (fn, _group), members in groups.items():
        for start in range(0, len(members), limit):
            chunk = members[start:start + limit]
            specs = [cells[i] for i in chunk]
            experiment = specs[0].experiment
            keys = [spec.key for spec in specs]
            resumable = store is not None and all(
                key is not None for key in keys
            )
            if resumable:
                assert store is not None
                hit, values = store.load_group_results(experiment, keys)
                if hit and values is not None:
                    for i, value in zip(chunk, values):
                        results[i] = value
                    if cache is not None:
                        cache.put_many(
                            experiment, list(zip(keys, values))
                        )
                    if metrics is not None:
                        metrics.counter(
                            "store.batch_resume_skipped_cells"
                        ).inc(len(chunk))
                    continue
            values = fn(
                [spec.kwargs for spec in specs],
                BatchContext(
                    metrics=metrics,
                    jobs=jobs,
                    cells=[(i, cells[i]) for i in chunk],
                ),
            )
            if len(values) != len(chunk):
                raise ConfigurationError(
                    f"batch function {fn!r} returned {len(values)} "
                    f"results for {len(chunk)} cells"
                )
            for i, value in zip(chunk, values):
                results[i] = value
            keyed = [
                (spec.key, value)
                for spec, value in zip(specs, values)
                if spec.key is not None
            ]
            if cache is not None and keyed:
                cache.put_many(experiment, keyed)
            if resumable:
                assert store is not None
                store.commit_group_results(experiment, keys, values)
    return per_cell


def _resume_cells(
    cells: Sequence[CellSpec],
    todo: List[int],
    results: List[Any],
    cache: Optional[ResultCache],
    metrics: Optional[MetricsRegistry],
    store: RunStore,
) -> List[int]:
    """Serve per-cell-path cells from their committed files; return the
    rest of *todo*.

    Each hit is counted under ``store.resume_skipped_cells`` and
    re-warms an attached cache (both hold the same snapshot bytes).
    """
    remaining: List[int] = []
    for index in todo:
        spec = cells[index]
        if spec.key is not None:
            hit, value = store.load_result(spec.experiment, spec.key)
            if hit:
                results[index] = value
                if cache is not None:
                    cache.put(spec.experiment, spec.key, value)
                continue
        remaining.append(index)
    resumed = len(todo) - len(remaining)
    if metrics is not None and resumed:
        metrics.counter("store.resume_skipped_cells").inc(resumed)
    return remaining


def run_cells(
    cells: Sequence[CellSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    metrics: Optional[MetricsRegistry] = None,
    store: Optional[RunStore] = None,
) -> List[Any]:
    """Execute *cells*, returning their results in cell order.

    ``jobs <= 1``, or a single pending cell, runs inline in grid order,
    with no pool and no pickling.  Otherwise the pending cells fan across
    one process pool of ``min(jobs, pending)`` workers, submitted in grid
    order.  A single-CPU host runs the batch inline instead: with no
    second core the pool can only add fork + pickle tax
    (``pool.inline_cells`` counts the cells so diverted).  All paths produce bit-identical
    results because each cell is a pure function of its kwargs.  If the
    platform cannot provide a process pool the call degrades to inline
    execution with a warning rather than failing.

    A cell that raises propagates its own exception, with a note naming
    the cell's experiment, index and key.  A worker that dies (killed,
    out of memory) raises :class:`~repro.common.errors.WorkerCrashError`
    naming every unfinished cell, chained to the executor's
    ``BrokenProcessPool``.  Either way, the results collected before the
    fault stay committed to cache and store, so re-running the grid
    executes only the cells that were not.

    Every per-cell-path cell runs through one timed execute function; an
    attached :class:`~repro.obs.metrics.MetricsRegistry` decides only
    whether the timings are recorded: each executed cell's wall time
    (``pool.cell_seconds``) and queue wait from the start of the call
    (``pool.queue_wait_seconds``), the worker count the executor
    actually used (``pool.jobs`` — 1 on the inline path,
    ``min(jobs, cells-to-run)`` on the pool path) and worker utilization
    (``pool.utilization`` — busy worker-seconds over used workers x
    batch span).

    With a :class:`~repro.store.log.RunStore` attached, each cell is
    looked up in the store where it would commit: a chunk of batched
    cells in its group file (``store.batch_resume_skipped_cells``), a
    cell on the per-cell path in its own file, just before the path
    executes (``store.resume_skipped_cells``).  A cell served from the
    store re-warms an attached cache — both hold the same snapshot
    bytes.  Every freshly executed cell is committed to cache *and*
    store the moment its result lands, not at batch end, so
    interrupting the batch after k cells loses at most the in-flight
    cells.

    Cells carrying a :class:`BatchSpec` are fused into grouped
    executions first — one batched call per ``(fn, group)`` chunk of at
    most :data:`BATCH_MAX_CELLS` cells (``REPRO_BATCH_MAX_CELLS``
    overrides), with one cache write-back and one fsync'd store commit
    per chunk.  The call runs in this process and receives a
    :class:`~repro.runtime.batch.BatchContext` carrying *metrics*, the
    resolved *jobs* and its ``map``, which fans the function's own tasks over
    a pool (an assessment grid's posterior evaluations); a task that
    raises, or a worker that dies, fails the chunk before it commits.
    For those cells the durability grain coarsens from one cell to one
    chunk; chunk membership is deterministic, so a resumed run finds its
    completed chunks in the store (``store.batch_resume_skipped_cells``).
    Cells without a :class:`BatchSpec` take the per-cell path; which
    path a cell takes is fixed when its grid is built.
    """
    jobs = resolve_jobs(jobs)
    results: List[Any] = [None] * len(cells)
    todo: List[int] = []
    for index, spec in enumerate(cells):
        if spec.key is not None and cache is not None:
            hit, value = cache.get(spec.experiment, spec.key)
            if hit:
                results[index] = value
                continue
        todo.append(index)

    # Batched pass first: fusable cells run as fused groups (one batch
    # call and one fsync'd store commit per chunk), called in the parent
    # process; a batch function may fan its own tasks over a pool
    # (BatchContext.map).  Cells without a BatchSpec continue below on
    # the per-cell path, which looks each cell up in the store where it
    # commits: its own file.
    todo = _run_batched(cells, todo, results, cache, metrics, store, jobs)
    if store is not None:
        todo = _resume_cells(cells, todo, results, cache, metrics, store)

    batch_started = time.perf_counter()
    timings: List[Tuple[float, float]] = []

    def unpack(index: int, outcome: Tuple[Any, float, float]) -> None:
        value, started, elapsed = outcome
        results[index] = value
        timings.append((started, elapsed))
        # Commit per cell, as results arrive: the durability grain of
        # resumable grids.  Cache first (cheap), then the store file's
        # commit — a crash between the two re-runs nothing (the cache
        # serves the cell) and loses nothing committed.
        spec = cells[index]
        if spec.key is not None:
            if cache is not None:
                cache.put(spec.experiment, spec.key, value)
            if store is not None:
                store.commit_result(spec.experiment, spec.key, value)

    def describe(index: int) -> str:
        return describe_cell(cells[index], index)

    workers_used = 1
    if jobs <= 1 or len(todo) <= 1:
        run_inline(todo, _execute_cell_timed, cells, describe, unpack)
    elif (os.cpu_count() or 1) <= 1:
        # One CPU cannot run workers concurrently, so the pool would
        # only add fork + pickle tax to every cell.
        if metrics is not None:
            metrics.counter("pool.inline_cells").inc(len(todo))
        run_inline(todo, _execute_cell_timed, cells, describe, unpack)
    else:
        workers_used = run_pooled(
            todo, _execute_cell_timed, cells, describe, unpack,
            min(jobs, len(todo)), "cell",
        )

    if metrics is not None and timings:
        for started, elapsed in timings:
            metrics.histogram("pool.cell_seconds").observe(elapsed)
            metrics.histogram("pool.queue_wait_seconds").observe(
                max(0.0, started - batch_started)
            )
        metrics.counter("pool.cells_executed").inc(len(timings))
        record_pool_gauges(metrics, timings, batch_started, workers_used)

    return results
