"""Million-request load harness over the async middleware.

The harness drives N demands through an
:class:`~repro.services.aio.middleware.AsyncUpgradeMiddleware` with a
bounded producer/worker pipeline and reduces the per-demand summaries
to the same :class:`~repro.simulation.metrics.SystemMetrics` rows the
simulation backends produce — so a load run and a Table-5/6 cell are
directly comparable.

Backpressure
------------

Two knobs bound the pipeline, neither of which can change the results
(collection decisions are pure duration arithmetic keyed by demand
index):

* ``queue_capacity`` — the arrival queue is an ``asyncio.Queue`` with
  this maxsize; the producer's ``await put`` blocks when workers fall
  behind (loss-free backpressure, the bounded-buffer discipline).
* ``concurrency`` — number of worker coroutines consuming the queue;
  at most this many demands are in service at once.

Memory discipline
-----------------

At 10^6 requests an observation log is the dominant cost, so the
harness never builds one: :class:`StreamingReducer` folds each
:class:`~repro.services.aio.middleware.DemandSummary` into the metric
rows *in demand-index order* (a small reorder buffer absorbs
out-of-order completions, bounded by the worker concurrency).  Applying
in index order makes the float accumulation of the MET sums
left-to-right identical to ``metrics_from_log`` over a sequential run.
"""

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.services.aio.clock import run_virtual
from repro.services.aio.middleware import (
    AsyncUpgradeMiddleware,
    DemandSummary,
)
from repro.services.message import RequestMessage
from repro.simulation.metrics import ReleaseMetrics, SystemMetrics


class StreamingReducer:
    """Fold demand summaries into Table-5/6 rows without a log.

    ``add`` accepts summaries in any order; they are applied strictly
    in demand-index order via a reorder buffer, so the reduction is a
    pure function of the summary set (and bit-identical to the
    log-based reduction of a sequential run).
    """

    def __init__(self, release_names: Sequence[str]):
        self.metrics = SystemMetrics(
            releases=[ReleaseMetrics(name) for name in release_names]
        )
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(release_names)
        }
        self._buffer: Dict[int, DemandSummary] = {}
        self._cursor = 0
        self.peak_buffered = 0

    def add(self, summary: DemandSummary) -> None:
        self._buffer[summary.index] = summary
        if len(self._buffer) > self.peak_buffered:
            self.peak_buffered = len(self._buffer)
        while self._cursor in self._buffer:
            self._apply(self._buffer.pop(self._cursor))
            self._cursor += 1

    def _apply(self, summary: DemandSummary) -> None:
        for observation in summary.releases:
            if not observation.invoked:
                # Sequential mode: an active release the middleware
                # never asked contributes nothing to this demand.
                continue
            row = self.metrics.releases[self._index[observation.name]]
            if observation.collected:
                assert observation.outcome is not None
                assert observation.execution_time is not None
                row.record_response(
                    observation.outcome, observation.execution_time
                )
            else:
                row.record_no_response()
        if summary.system_verdict == "unavailable":
            self.metrics.system.record_no_response(summary.system_time)
        else:
            self.metrics.system.record_response(
                summary.system_outcome, summary.system_time
            )

    def finish(self) -> SystemMetrics:
        """Close the reduction; every added summary must have applied."""
        if self._buffer:
            missing = self._cursor
            raise AssertionError(
                f"reduction has gaps: demand {missing} never completed "
                f"({len(self._buffer)} summaries stranded)"
            )
        self.metrics.check_consistency()
        return self.metrics


@dataclass
class LoadResult:
    """What one load run measured."""

    metrics: SystemMetrics
    requests: int
    wall_seconds: float
    throughput: float
    concurrency: int
    queue_capacity: int
    peak_queue_depth: int
    peak_reorder_buffer: int
    faults: int


def run_load(
    middleware: AsyncUpgradeMiddleware,
    requests: int,
    *,
    concurrency: int = 16,
    queue_capacity: int = 64,
    registry: Optional[MetricsRegistry] = None,
) -> LoadResult:
    """Drive *requests* demands through *middleware* on a fresh
    virtual-clock loop and return what the run measured.

    Demand *i* carries ``arguments=(i,)`` and ``reference_answer=i`` —
    the exact request stream of
    :func:`repro.experiments.event_sim.run_release_pair_simulation` —
    and is served with ``demand_index=i`` so the middleware reads
    script row *i* whichever worker picks it up.  Simulated seconds
    are free, so ``wall_seconds``/``throughput`` measure pure
    processing cost, and the rows are bit-identical across repetitions
    and backpressure settings.
    """
    if requests < 0:
        raise ConfigurationError(f"requests must be >= 0: {requests!r}")
    if concurrency < 1:
        raise ConfigurationError(f"concurrency must be >= 1: {concurrency!r}")
    if queue_capacity < 1:
        raise ConfigurationError(
            f"queue_capacity must be >= 1: {queue_capacity!r}"
        )
    reducer = StreamingReducer(middleware.release_names())
    state = {"faults": 0, "peak_depth": 0}
    # Histograms retain observations; sample the queue wait at ~10k
    # points however large the run.
    wait_stride = max(1, requests // 10_000)
    wait_histogram = (
        registry.histogram("aio.queue_wait_seconds")
        if registry is not None
        else None
    )
    depth_gauge = (
        registry.gauge("aio.queue_depth") if registry is not None else None
    )

    async def pipeline() -> None:
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue(maxsize=queue_capacity)

        async def producer() -> None:
            for i in range(requests):
                await queue.put((i, loop.time()))
                depth = queue.qsize()
                if depth > state["peak_depth"]:
                    state["peak_depth"] = depth
                if depth_gauge is not None:
                    depth_gauge.set(depth)
            for _ in range(concurrency):
                await queue.put(None)

        async def worker() -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                i, enqueued_at = item
                if wait_histogram is not None and i % wait_stride == 0:
                    wait_histogram.observe(loop.time() - enqueued_at)
                report = await middleware.call(
                    RequestMessage(operation="operation1", arguments=(i,)),
                    demand_index=i,
                    reference_answer=i,
                )
                if report.response.is_fault:
                    state["faults"] += 1
                reducer.add(report.summary)

        await asyncio.gather(
            producer(), *(worker() for _ in range(concurrency))
        )

    started = time.perf_counter()
    run_virtual(pipeline())
    wall_seconds = time.perf_counter() - started
    metrics = reducer.finish()
    throughput = (
        requests / wall_seconds if wall_seconds > 0 else float("inf")
    )
    if registry is not None:
        registry.counter("aio.demands").inc(requests)
        registry.counter("aio.faults").inc(state["faults"])
        registry.gauge("aio.inflight_peak").set(
            min(concurrency, requests)
        )
        registry.gauge("aio.throughput").set(throughput)
    return LoadResult(
        metrics=metrics,
        requests=requests,
        wall_seconds=wall_seconds,
        throughput=throughput,
        concurrency=concurrency,
        queue_capacity=queue_capacity,
        peak_queue_depth=state["peak_depth"],
        peak_reorder_buffer=reducer.peak_buffered,
        faults=state["faults"],
    )


__all__ = [
    "LoadResult",
    "StreamingReducer",
    "run_load",
]
