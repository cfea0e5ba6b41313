"""The managed-upgrade middleware on the asyncio substrate.

:class:`AsyncUpgradeMiddleware` serves the same four operating modes as
:class:`~repro.core.middleware.UpgradeMiddleware` — parallel
max-reliability, parallel max-responsiveness, parallel-dynamic and
fixed-order sequential — over coroutine endpoints instead of kernel
callbacks.  Random-order sequential mode runs on the event kernel only
(the service_load experiment never asks for it), so the constructor
refuses it.
Message types, fault models, adjudication rules and the Table-5/6
observation schema are shared with the sync substrate; only the
execution machinery differs.

Determinism model
-----------------

The event kernel is deterministic because a single heap orders every
callback.  asyncio offers no such guarantee once demands overlap, so the
async middleware moves every random draw *out of execution order*:

* a :class:`~repro.runtime.sampling.DemandScript` pre-draws T1, per-
  release T2 and the joint outcome matrix, indexed by **demand index** —
  whichever worker serves demand *i*, it reads row *i*;
* adjudication tie-breaks draw from a per-demand generator derived from
  ``(adjudication_seed, demand index)`` via
  :class:`~repro.common.seeding.SeedSequenceFactory` — order-
  independent, and materialized lazily because the paper's rules only
  draw on disagreeing valid results;
* collection is decided by pure duration arithmetic (``d < budget``,
  strict — the kernel's timeout-wins tie rule) rather than by observing
  the clock, so the decision is identical under any concurrency limit.

The one knowing deviation from the kernel: a shared adjudication stream
would re-introduce completion-order coupling, so tie-break draws come
from per-demand streams.  Demands whose adjudication actually consumes
randomness (two *disagreeing* valid results — max-reliability mode
only) may therefore resolve the CR/NER split differently than the
kernel run; every other Table-5/6 figure is bit-identical.  The
service_load experiment's cross-check encodes exactly this tolerance.
"""

import asyncio
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.seeding import SeedSequenceFactory
from repro.core.adjudicators import (
    Adjudication,
    CollectedResponse,
    PaperRuleAdjudicator,
)
from repro.core.middleware import UpgradeMiddleware
from repro.core.modes import ModeConfig, OperatingMode, SequentialOrder
from repro.core.monitor import MonitoringSubsystem
from repro.runtime.sampling import DemandScript
from repro.services.aio.clock import checked_sleep
from repro.services.aio.endpoint import AsyncEndpoint
from repro.services.message import RequestMessage, ResponseMessage
from repro.simulation.outcomes import OUTCOME_ORDER, Outcome
from repro.simulation.timing import SystemTimingPolicy


class _LazyGenerator:
    """A generator materialized on first use.

    Adjudication needs randomness only when valid results disagree; at
    realistic failure rates that is a tiny fraction of demands, and
    spinning up a PCG64 per demand would dominate the load loop.  The
    proxy defers construction until (unless) a method is actually
    called.
    """

    __slots__ = ("_make", "_rng")

    def __init__(self, make):
        self._make = make
        self._rng = None

    def __getattr__(self, name):
        if self._rng is None:
            self._rng = self._make()
        return getattr(self._rng, name)


@dataclass(frozen=True)
class ReleaseSummary:
    """One release's contribution to one demand, reduction-ready.

    Mirrors :class:`~repro.core.database.ReleaseObservation` but carries
    the *true* outcome only — the streaming reducer feeds
    :class:`~repro.simulation.metrics.ReleaseMetrics` exactly the way
    ``metrics_from_log`` does, without holding a log.
    """

    name: str
    invoked: bool
    collected: bool
    outcome: Optional[Outcome] = None
    execution_time: Optional[float] = None


@dataclass(frozen=True)
class DemandSummary:
    """One demand's full Table-5/6 observation row."""

    index: int
    releases: Tuple[ReleaseSummary, ...]
    system_verdict: str
    system_outcome: Optional[Outcome]
    system_time: float


@dataclass(frozen=True)
class AsyncDemandReport:
    """The response one demand delivered and its observation row."""

    response: ResponseMessage
    summary: DemandSummary


class AsyncUpgradeMiddleware:
    """Managed-upgrade middleware over N releases, served by coroutines.

    Parameters
    ----------
    endpoints:
        Deployed :class:`~repro.services.aio.endpoint.AsyncEndpoint`
        releases, old release first by convention.
    timing:
        TimeOut + adjudication delay (eq. 8).
    adjudication_seed:
        Root of the per-demand tie-break streams (see module docstring).
    script:
        The pre-drawn randomness, with an outcome matrix: release *k*
        reads ``t2[k]`` and ``outcome_codes[:, k]``.
    mode / monitor:
        Operating mode (max-reliability by default; random-order
        sequential raises :class:`ConfigurationError`) and an optional
        monitoring subsystem that records every demand.
    """

    def __init__(
        self,
        endpoints: List[AsyncEndpoint],
        timing: SystemTimingPolicy,
        *,
        adjudication_seed: int,
        script: DemandScript,
        mode: Optional[ModeConfig] = None,
        monitor: Optional[MonitoringSubsystem] = None,
    ):
        if not endpoints:
            raise ConfigurationError("middleware needs at least one release")
        codes = script.outcome_codes
        if codes is None or len(script.t2) != len(endpoints) or (
            codes.shape[1] != len(endpoints)
        ):
            raise ConfigurationError(
                f"the demand script needs an outcome matrix and one "
                f"column per release ({len(endpoints)})"
            )
        mode = mode or ModeConfig.max_reliability()
        if (
            mode.mode is OperatingMode.SEQUENTIAL
            and mode.sequential_order is SequentialOrder.RANDOM
        ):
            raise ConfigurationError(
                f"sequential order {mode.sequential_order.value!r} runs on "
                f"the event kernel only"
            )
        self.endpoints: List[AsyncEndpoint] = list(endpoints)
        self.timing = timing
        self.adjudicator = PaperRuleAdjudicator()
        self.mode = mode
        self.monitor = monitor
        self.script = script
        self._seed_factory = SeedSequenceFactory(adjudication_seed)
        self.demands = 0
        # Sequential demands read each release's next unconsumed T2
        # row, not row ``index`` (see _sequential_rows).
        self._t2_rows: Optional[List[np.ndarray]] = (
            self._sequential_rows()
            if self.mode.mode is OperatingMode.SEQUENTIAL
            else None
        )

    def release_names(self) -> List[str]:
        return [endpoint.name for endpoint in self.endpoints]

    async def call(
        self,
        request: RequestMessage,
        *,
        demand_index: int,
        reference_answer: object = None,
    ) -> AsyncDemandReport:
        """Serve demand *demand_index* (script row) and report it.

        Resolves to exactly one response, at the demand's close.
        """
        self.demands += 1
        if self.mode.mode is OperatingMode.SEQUENTIAL:
            return await self._serve_sequential(
                request, reference_answer, demand_index
            )
        return await self._serve_parallel(
            request, reference_answer, demand_index
        )

    # ------------------------------------------------------------------
    # demand machinery
    # ------------------------------------------------------------------

    def _tie_rng(self, index: int) -> _LazyGenerator:
        return _LazyGenerator(
            lambda: self._seed_factory.generator(f"demand/{index}")
        )

    def _sequential_rows(self) -> List[np.ndarray]:
        """Per-release script-row indices for sequential mode.

        The kernel's scripted latency distributions are consumed *per
        invocation*: in sequential mode release k's next T2 row is read
        only when the demand escalates to it, so demand *i* reads row
        ``j = #(earlier demands that invoked release k)`` — not row
        *i*.  Each escalation decision is a pure function of the
        script, so the whole mapping is one vectorized prefix scan.
        Demands that never reach release k keep row *i*.
        """
        script = self.script
        codes = script.outcome_codes
        assert codes is not None
        timeout = self.timing.timeout
        evident = OUTCOME_ORDER.index(Outcome.EVIDENT_FAILURE)
        t1 = script.t1
        demands = np.arange(len(t1))
        rows: List[np.ndarray] = []
        invoked = np.ones(len(t1), dtype=bool)
        cumulative = np.zeros(len(t1), dtype=np.float64)
        for k in range(len(self.endpoints)):
            j = np.cumsum(invoked) - invoked  # exclusive prefix count
            rows.append(np.where(invoked, j, demands))
            t2 = script.t2[k][np.where(invoked, j, 0)]
            d = t1 + t2
            arrival = cumulative + d
            # Collected iff it lands strictly inside the demand's
            # remaining TimeOut window.
            collected = invoked & (arrival < timeout)
            escalates = collected & (codes[:, k] == evident)
            cumulative = np.where(escalates, arrival, cumulative)
            invoked = escalates
        return rows

    def _demand_inputs(
        self, index: int
    ) -> Tuple[float, List[float], List[Outcome]]:
        """(T1, per-release T2, per-release forced outcome) for demand
        *index*, read from the script."""
        script = self.script
        codes = script.outcome_codes
        assert codes is not None
        rows = self._t2_rows
        t2s = [
            float(t2[index if rows is None else rows[k][index]])
            for k, t2 in enumerate(script.t2)
        ]
        forced = [OUTCOME_ORDER[int(code)] for code in codes[index]]
        return float(script.t1[index]), t2s, forced

    async def _serve_parallel(
        self,
        request: RequestMessage,
        reference_answer: object,
        index: int,
    ) -> AsyncDemandReport:
        loop = asyncio.get_running_loop()
        start = loop.time()
        timeout = self.timing.timeout
        mode = self.mode
        difficulty, t2s, forced = self._demand_inputs(index)
        results = await asyncio.gather(*(
            endpoint.invoke_within(
                request,
                timeout,
                reference_answer=reference_answer,
                forced_outcome=forced[k],
                demand_difficulty=difficulty,
                t2=t2s[k],
            )
            for k, endpoint in enumerate(self.endpoints)
        ))
        # Arrival order: by duration, ties by fan-out order — exactly
        # the kernel heap's FIFO dispatch of equal-time events.
        arrivals = sorted(
            (
                (d, k, response)
                for k, result in enumerate(results)
                if result is not None
                for response, d in (result,)
            ),
            key=lambda arrival: (arrival[0], arrival[1]),
        )
        all_arrived = len(arrivals) == len(self.endpoints)

        delivered: Optional[Adjudication] = None
        delivered_d = 0.0
        if mode.mode is OperatingMode.PARALLEL_RESPONSIVENESS:
            collected = arrivals
            for d, k, response in arrivals:
                if not response.is_fault:
                    delivered = Adjudication(
                        "result", response, self.endpoints[k].name
                    )
                    delivered_d = d
                    break
            decision_d = (
                arrivals[-1][0] if (all_arrived and arrivals) else timeout
            )
        elif mode.mode is OperatingMode.PARALLEL_DYNAMIC:
            threshold = min(mode.min_responses or 1, len(self.endpoints))
            if len(arrivals) >= threshold:
                # Arrivals after the decision are dropped, exactly as the
                # kernel drops post-close arrivals.
                collected = arrivals[:threshold]
                decision_d = collected[-1][0]
            else:
                collected = arrivals
                decision_d = timeout
        else:  # PARALLEL_RELIABILITY
            collected = arrivals
            decision_d = (
                arrivals[-1][0] if (all_arrived and arrivals) else timeout
            )

        items = [
            CollectedResponse(
                release=self.endpoints[k].name,
                response=response,
                execution_time=d,
            )
            for d, k, response in collected
        ]
        return await self._close(
            request, reference_answer, index, items, delivered,
            decision_d=decision_d, start=start, loop=loop,
            delivered_d=delivered_d,
        )

    async def _serve_sequential(
        self,
        request: RequestMessage,
        reference_answer: object,
        index: int,
    ) -> AsyncDemandReport:
        loop = asyncio.get_running_loop()
        start = loop.time()
        timeout = self.timing.timeout
        difficulty, t2s, forced = self._demand_inputs(index)
        items: List[CollectedResponse] = []
        cumulative = 0.0
        decision_d: Optional[float] = None
        invoked = 0
        for k, endpoint in enumerate(self.endpoints):
            invoked += 1
            result = await endpoint.invoke_within(
                request,
                timeout - cumulative,
                reference_answer=reference_answer,
                forced_outcome=forced[k],
                demand_difficulty=difficulty,
                t2=t2s[k],
            )
            if result is None:
                # Silent within the window: the demand's TimeOut fires.
                decision_d = timeout
                break
            response, d = result
            arrival = cumulative + d
            items.append(
                CollectedResponse(
                    release=endpoint.name,
                    response=response,
                    execution_time=arrival,
                )
            )
            if not response.is_fault:
                decision_d = arrival
                break
            # Evidently incorrect: escalate to the next release.
            cumulative = arrival
        if decision_d is None:
            decision_d = cumulative
        invoked_names = [
            endpoint.name for endpoint in self.endpoints[:invoked]
        ]
        return await self._close(
            request, reference_answer, index, items, None,
            decision_d=decision_d, start=start, loop=loop,
            invoked_names=invoked_names,
        )

    async def _close(
        self,
        request: RequestMessage,
        reference_answer: object,
        index: int,
        items: List[CollectedResponse],
        delivered: Optional[Adjudication],
        *,
        decision_d: float,
        start: float,
        loop: asyncio.AbstractEventLoop,
        invoked_names: Optional[List[str]] = None,
        delivered_d: float = 0.0,
    ) -> AsyncDemandReport:
        timing = self.timing
        if delivered is not None:
            adjudication = delivered
            system_time = delivered_d + timing.adjudication_delay
        else:
            adjudication = self.adjudicator.adjudicate(
                request, items, self._tie_rng(index)
            )
            system_time = (
                min(decision_d, timing.timeout) + timing.adjudication_delay
            )
        response = UpgradeMiddleware._guaranteed_response(
            request, adjudication
        )
        summary = self._summarize(
            index, items, adjudication, system_time, reference_answer,
            invoked_names,
        )
        if self.monitor is not None:
            self.monitor.record_demand(
                request_id=request.message_id,
                timestamp=start,
                active_releases=self.release_names(),
                collected=items,
                adjudication=adjudication,
                system_time=system_time,
                reference_answer=reference_answer,
                invoked_releases=invoked_names,
            )
        # Resolve at the demand's close (never before system_time): the
        # extra sleep models dT past the last collection, so a consumer
        # awaiting `call` sees kernel-identical response times in the
        # reliability and sequential modes.  (In the fast-path modes the
        # demand still holds its slot until collection closes; the
        # *metric* records the earlier consumer-visible time.)
        await checked_sleep(
            max(0.0, system_time - (loop.time() - start))
        )
        return AsyncDemandReport(response=response, summary=summary)

    def _summarize(
        self,
        index: int,
        items: List[CollectedResponse],
        adjudication: Adjudication,
        system_time: float,
        reference_answer: object,
        invoked_names: Optional[List[str]],
    ) -> DemandSummary:
        by_release = {item.release: item for item in items}
        invoked = (
            set(invoked_names)
            if invoked_names is not None
            else set(self.release_names())
        )
        releases = []
        for endpoint in self.endpoints:
            item = by_release.get(endpoint.name)
            if item is not None:
                releases.append(
                    ReleaseSummary(
                        name=endpoint.name,
                        invoked=True,
                        collected=True,
                        outcome=MonitoringSubsystem.classify(
                            item.response, reference_answer
                        ),
                        execution_time=item.execution_time,
                    )
                )
            else:
                releases.append(
                    ReleaseSummary(
                        name=endpoint.name,
                        invoked=endpoint.name in invoked,
                        collected=False,
                    )
                )
        system_outcome = (
            MonitoringSubsystem.classify(
                adjudication.response, reference_answer
            )
            if adjudication.response is not None
            and adjudication.verdict != "unavailable"
            else None
        )
        return DemandSummary(
            index=index,
            releases=tuple(releases),
            system_verdict=adjudication.verdict,
            system_outcome=system_outcome,
            system_time=system_time,
        )

    def __repr__(self) -> str:
        return (
            f"AsyncUpgradeMiddleware(releases={self.release_names()!r}, "
            f"mode={self.mode.mode.value!r}, demands={self.demands})"
        )


__all__ = [
    "AsyncDemandReport",
    "AsyncUpgradeMiddleware",
    "DemandSummary",
    "ReleaseSummary",
]
