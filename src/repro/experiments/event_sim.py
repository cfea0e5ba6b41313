"""Shared machinery for the event-driven experiments (Tables 5-6).

Builds the full §5.2.1 stack — two release endpoints, the upgrade
middleware in parallel max-reliability mode with the paper's adjudication
rules, a monitoring subsystem — drives 10,000 requests through it on the
discrete-event kernel, and reduces the observation log to the Table-5/6
row format (MET, CR/EER/NER counts, NRDT per release and for the
adjudicated system).  :func:`release_pair_spec` declares both tables'
:class:`~repro.pipeline.spec.ExperimentSpec` from the one cell builder
they share, :func:`release_pair_cells`.  The columnar resolver
(:mod:`repro.runtime.columnar`) is imported where a cell first resolves
on it, so a process that only imports the experiment layer, or runs no
columnar cell, does not compile it at start-up.
"""

import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.seeding import SeedSequenceFactory
from repro.common.tables import render_table
from repro.core.adjudicators import Adjudicator, PaperRuleAdjudicator
from repro.core.middleware import UpgradeMiddleware
from repro.core.modes import ModeConfig
from repro.core.monitor import MonitoringSubsystem
from repro.core.database import ObservationLog
from repro.experiments import paper_params as P
from repro.experiments.paper_params import DEFAULT_SEED
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import JsonlTracer, Tracer
from repro.pipeline.spec import ExperimentOptions, ExperimentSpec
from repro.runtime.parallel import BatchSpec, CellSpec
from repro.runtime.sampling import (
    DemandScript,
    ScriptArena,
    build_demand_script,
    build_demand_script_arena,
)
from repro.services.endpoint import ServiceEndpoint
from repro.services.message import RequestMessage
from repro.services.retry import RetryingPort, RetryPolicy
from repro.services.wsdl import default_wsdl
from repro.simulation.correlation import (
    JointOutcomeModel,
    OutcomeDistribution,
)
from repro.simulation.distributions import (
    Distribution,
    Exponential,
    LogNormal,
    WithHangs,
)
from repro.simulation.engine import Simulator
from repro.simulation.metrics import ReleaseMetrics, SystemMetrics
from repro.simulation.release_model import ReleaseBehaviour
from repro.simulation.timing import SystemTimingPolicy
from repro.simulation.workload import StreamingArrivalSource

if TYPE_CHECKING:
    from repro.runtime.batch import BatchContext

#: Demand-resolution backends.  ``event`` threads every demand through
#: the discrete-event kernel (the reference semantics); ``columnar``
#: resolves the whole cell as numpy array operations over the demand
#: script (bit-identical within its proven envelope — the parallel §4.2
#: operating modes and fixed-order sequential mode over N releases, no
#: retry — and two orders of magnitude faster); ``auto`` picks columnar
#: when :func:`repro.runtime.columnar.unsupported_reasons` is empty and
#: falls back to the event kernel otherwise.
BACKENDS = ("event", "columnar", "auto")


@dataclass(frozen=True)
class LatencyProfile:
    """How execution times are generated (eq. 7 components).

    Attributes
    ----------
    name:
        Profile label used in reports.
    demand_difficulty:
        Distribution of the shared T1 component.
    release_latencies:
        One T2 distribution per release.
    """

    name: str
    demand_difficulty: Distribution
    release_latencies: Sequence[Distribution]


def paper_profile() -> LatencyProfile:
    """The §5.2.2 parameters verbatim: T1, T2(i) ~ Exp(0.7 s)."""
    return LatencyProfile(
        name="paper",
        demand_difficulty=Exponential(P.T1_MEAN),
        release_latencies=(Exponential(P.T2_MEAN), Exponential(P.T2_MEAN)),
    )


def calibrated_profile() -> LatencyProfile:
    """A latency profile fitted to the paper's *reported* MET/NRDT.

    The §5.2.2 exponential parameters imply per-release MET 1.4 s and
    ~37 % TimeOut misses at 1.5 s, while the paper's tables report
    MET ~1.0 s and ~4 % NRDT.  Moreover the paper's *system* NRDT stays
    close to the per-release NRDT (326 vs 436 per 10,000 at 1.5 s),
    which a 1-out-of-2 system only shows when unavailability is strongly
    correlated across releases.  The fit therefore uses tight log-normal
    bodies plus a hang probability split between a *shared* component
    (on the demand-difficulty leg T1 — e.g. a request lost before
    reaching either release) and a small per-release component; see
    :mod:`repro.experiments.calibration` for the fit.
    """
    shared = WithHangs(LogNormal(0.60, 0.25), 0.024)
    own = WithHangs(LogNormal(0.40, 0.25), 0.009)
    return LatencyProfile(
        name="calibrated",
        demand_difficulty=shared,
        release_latencies=(own, own),
    )


def run_release_pair_simulation(
    joint_model: JointOutcomeModel,
    timeout: float,
    requests: int = P.REQUESTS_PER_RUN,
    seed: int = DEFAULT_SEED,
    profile: Optional[LatencyProfile] = None,
    mode: Optional[ModeConfig] = None,
    adjudicator: Optional[Adjudicator] = None,
    trace_path: Optional[str] = None,
    trace_cell: str = "",
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    backend: str = "event",
    retry: Optional[RetryPolicy] = None,
) -> SystemMetrics:
    """One Table-5/6 cell: a full event-driven run.

    The cell's randomness is pre-drawn as a demand script (see
    :mod:`repro.runtime.sampling`) and resolved by
    :func:`run_scripted_cell`.  Release 1 samples the first marginal of
    *joint_model* and every later release the second, whenever the
    middleware forces no outcomes on them.

    *backend* picks the demand-resolution strategy (see
    :data:`BACKENDS`).  ``columnar`` resolves the cell as array
    operations over the demand script — bit-identical to ``event``
    inside the envelope documented in :mod:`repro.runtime.columnar`,
    and a :class:`ConfigurationError` outside it; ``auto`` falls back
    to the event kernel outside the envelope (counted by the
    ``backend.fallback_cells`` metric).

    *retry* optionally wraps the middleware in a
    :class:`~repro.services.retry.RetryingPort`, re-submitting demands
    whose adjudication was evidently erroneous; every attempt appears
    as its own middleware demand in the reduced rows.  Retry cells run
    on the event kernel only, and over-provision the demand script to
    ``requests * (1 + max_attempts)`` rows, one consumed per attempt
    (the scripted adapters tolerate leftover rows).

    Observability (all opt-in, see :mod:`repro.obs`): *trace_path*
    writes the cell's kernel + demand-span event stream as JSONL
    (labelled *trace_cell*); an explicit *tracer* can be passed instead;
    *metrics* collects kernel statistics (dispatched events, peak heap,
    compactions) after the run.  Traced fields carry simulated time
    only, so the stream is bit-identical for any ``--jobs`` value.

    Returns the reduced :class:`SystemMetrics` (Rel1 / Rel2 / System
    rows).
    """
    profile = profile or paper_profile()
    seeds = SeedSequenceFactory(seed)
    releases = len(profile.release_latencies)
    script = build_demand_script(
        joint_model if releases >= 2 else None,
        profile.demand_difficulty,
        profile.release_latencies,
        requests,
        seeds,
        draws=(
            requests * (1 + retry.max_attempts)
            if retry is not None
            else None
        ),
    )
    marginals = [joint_model.marginal_first()] + [
        joint_model.marginal_second()
    ] * (releases - 1)
    return run_scripted_cell(
        script,
        seeds,
        profile,
        marginals,
        timeout,
        requests,
        mode=mode,
        adjudicator=adjudicator,
        retry=retry,
        backend=backend,
        metrics=metrics,
        trace_path=trace_path,
        trace_cell=trace_cell,
        tracer=tracer,
    )


def run_scripted_cell(
    script: DemandScript,
    seeds: SeedSequenceFactory,
    profile: LatencyProfile,
    marginals: Sequence[OutcomeDistribution],
    timeout: float,
    requests: int,
    *,
    mode: Optional[ModeConfig] = None,
    adjudicator: Optional[Adjudicator] = None,
    retry: Optional[RetryPolicy] = None,
    backend: str = "event",
    metrics: Optional[MetricsRegistry] = None,
    trace_path: Optional[str] = None,
    trace_cell: str = "",
    tracer: Optional[Tracer] = None,
) -> SystemMetrics:
    """Resolve one scripted simulation cell on the chosen backend.

    The one cell runner behind every Table-5/6 and 1-out-of-N cell.
    *script* is the cell's pre-drawn randomness (drawn from *seeds*),
    *profile* its latency laws (one T2 per release) and *marginals* the
    outcome law each release samples when the middleware forces none.
    The event kernel runs *requests* demands; a retry cell's script
    holds ``requests * (1 + max_attempts)`` rows.  The columnar backend
    resolves one demand per script row, which for every cell inside its
    envelope (no retry) is *requests*.

    The middleware forces outcomes only on two or more active releases,
    so a lone release samples its own marginal on its endpoint stream
    (``ep0``), one draw per invocation.  The columnar backend pre-draws
    that stream as the cell's outcome codes, one per script row.

    ``backend="columnar"`` or ``"auto"`` first asks
    :func:`repro.runtime.columnar.unsupported_reasons` whether the cell
    is inside the columnar envelope; otherwise (or for ``"event"``) the
    cell runs on the event kernel: one endpoint per release, the
    monitor, the middleware (optionally behind a retry port) and a
    streaming arrival source.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}: {backend!r}"
        )
    if trace_path is not None and tracer is not None:
        raise ConfigurationError(
            "pass trace_path or tracer, not both"
        )
    releases = len(profile.release_latencies)
    release_names = [f"Web-Service 1.{index}" for index in range(releases)]
    spacing = timeout + P.ADJUDICATION_DELAY + 0.5

    if backend != "event":
        from repro.runtime import columnar

        outcome_codes = None
        if releases < 2:
            # sample_many is bit-identical to the endpoint's scalar
            # draws on the same stream.
            outcome_codes = np.asarray(
                marginals[0].sample_many(
                    seeds.generator("ep0"), script.requests
                ),
                dtype=np.int64,
            ).reshape(script.requests, 1)
        reasons = columnar.unsupported_reasons(
            script=script,
            mode=mode,
            adjudicator=adjudicator,
            tracing=trace_path is not None or tracer is not None,
            retry=retry,
            outcome_codes=outcome_codes,
        )
        if not reasons:
            if metrics is not None:
                metrics.counter("backend.columnar_cells").inc()
            return columnar.resolve_cell(
                script,
                release_names=release_names,
                timeout=timeout,
                adjudication_delay=P.ADJUDICATION_DELAY,
                spacing=spacing,
                # The resolver mirrors the middleware's construction
                # draw: it spawns the adjudication generator from the
                # "middleware" stream.
                middleware_rng=seeds.generator("middleware"),
                mode=mode,
                outcome_codes=outcome_codes,
            )
        if backend == "columnar":
            raise ConfigurationError(
                "backend 'columnar' cannot resolve this cell: "
                + "; ".join(message for _slug, message in reasons)
            )
        if metrics is not None:
            metrics.counter("backend.fallback_cells").inc()
            for slug, _message in reasons:
                metrics.counter(f"backend.fallback_reason.{slug}").inc()

    own_tracer = (
        JsonlTracer(trace_path, cell=trace_cell)
        if trace_path is not None
        else None
    )
    simulator = Simulator(tracer=own_tracer or tracer)

    endpoints = []
    for index, latency in enumerate(profile.release_latencies):
        wsdl = default_wsdl("Web-Service", f"node-{index + 1}",
                            release=f"1.{index}")
        behaviour = ReleaseBehaviour(
            release_names[index],
            marginals[index],
            script.release_latency(index, base=latency),
        )
        endpoints.append(
            ServiceEndpoint(wsdl, behaviour, seeds.generator(f"ep{index}"))
        )

    monitor = MonitoringSubsystem(seeds.generator("monitor"))
    middleware = UpgradeMiddleware(
        endpoints=endpoints,
        timing=SystemTimingPolicy(
            timeout=timeout, adjudication_delay=P.ADJUDICATION_DELAY
        ),
        rng=seeds.generator("middleware"),
        adjudicator=adjudicator or PaperRuleAdjudicator(),
        mode=mode or ModeConfig.max_reliability(),
        monitor=monitor,
        joint_outcome_model=script.joint_model(),
        demand_difficulty=script.demand_difficulty(
            base=profile.demand_difficulty
        ),
    )

    sink: List[object] = []
    port = middleware if retry is None else RetryingPort(middleware, retry)

    def submit(i: int) -> None:
        request = RequestMessage(operation="operation1", arguments=(i,))
        port.submit(
            simulator, request, sink.append, reference_answer=i
        )

    StreamingArrivalSource(simulator, requests, spacing, submit).start()
    try:
        simulator.run()
    finally:
        if own_tracer is not None:
            own_tracer.close()
    if metrics is not None:
        metrics.counter("kernel.dispatched").inc(simulator.dispatched_count)
        metrics.counter("kernel.compactions").inc(simulator.compactions)
        metrics.histogram("kernel.peak_heap").observe(
            simulator.peak_heap_size
        )
    return metrics_from_log(monitor.log, release_names)


def metrics_from_log(
    log: ObservationLog, release_names: Sequence[str]
) -> SystemMetrics:
    """Reduce an observation log to the Table-5/6 row format."""
    metrics = SystemMetrics(
        releases=[ReleaseMetrics(name) for name in release_names]
    )
    index = {name: i for i, name in enumerate(release_names)}
    for record in log:
        for name, observation in record.releases.items():
            if not observation.invoked:
                # Sequential mode: an active release the middleware never
                # asked is not thereby unavailable — it contributes
                # nothing to this demand's per-release row.
                continue
            row = metrics.releases[index[name]]
            if observation.collected:
                row.record_response(
                    observation.true_outcome, observation.execution_time
                )
            else:
                row.record_no_response()
        if record.system_verdict == "unavailable":
            metrics.system.record_no_response(record.system_time)
        else:
            metrics.system.record_response(
                record.system_outcome, record.system_time
            )
    metrics.check_consistency()
    return metrics


@dataclass
class SimulationRunResult:
    """One (run, timeout) cell of Table 5/6."""

    run: int
    timeout: float
    metrics: SystemMetrics


#: The observation rows of a Table 5/6 block, in the paper's order;
#: each names a key of :meth:`ReleaseMetrics.as_row`.
OBSERVATION_ROWS = (
    "MET", "CR", "EER", "NER", "Total", "NRDT", "Total requests",
)


@dataclass
class SimulationTable:
    """A full Table 5 or Table 6 result set."""

    label: str
    results: List[SimulationRunResult]
    #: Lazily built (run, timeout) -> result index for O(1) cell lookup;
    #: rebuilt whenever the results list changes length.
    _index: Optional[Dict[Tuple[int, float], SimulationRunResult]] = field(
        default=None, repr=False, compare=False
    )

    def cell(self, run: int, timeout: float) -> SimulationRunResult:
        index = self._index
        if index is None or len(index) != len(self.results):
            index = {
                (result.run, result.timeout): result
                for result in self.results
            }
            self._index = index
        try:
            return index[(run, timeout)]
        except KeyError:
            raise KeyError((run, timeout)) from None

    def runs(self) -> List[int]:
        return sorted({result.run for result in self.results})

    def timeouts(self) -> List[float]:
        return sorted({result.timeout for result in self.results})

    def render(self) -> str:
        """Paper-layout blocks: one per run, columns per timeout.

        Each (run, TimeOut) cell's three columns are built once per
        block, then read once per observation row.
        """
        timeouts = self.timeouts()
        headers = ["Observation"] + [
            f"{column}@{timeout}"
            for timeout in timeouts
            for column in ("Rel1", "Rel2", "System")
        ]
        blocks = []
        for run in self.runs():
            columns = []
            for timeout in timeouts:
                metrics = self.cell(run, timeout).metrics
                columns.append(metrics.releases[0].as_row())
                columns.append(metrics.releases[1].as_row())
                columns.append(metrics.system.as_row())
            rows = [
                [label] + [column[label] for column in columns]
                for label in OBSERVATION_ROWS
            ]
            blocks.append(
                render_table(
                    headers, rows, title=f"{self.label} — Run {run}"
                )
            )
        return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Unified pipeline cells — Tables 5/6 and the fidelity diff share these
# ----------------------------------------------------------------------

#: Joint-outcome model family per grid: Table 5 samples release 2 from
#: the Table-4 conditional (positive correlation), Table 6 samples both
#: releases independently from their Table-3 marginals.
#: The outcome-model families Tables 5 and 6 choose between.
JOINT_MODEL_NAMES: Tuple[str, ...] = ("correlated", "independent")


def joint_model(joint: str, run: int) -> JointOutcomeModel:
    """The *run*-th outcome model of the *joint* family (function
    dispatch, not a module-level table: cell functions must not read
    module-level mutables — REPRO103)."""
    if joint == "correlated":
        return P.correlated_model(run)
    if joint == "independent":
        return P.independent_model(run)
    raise ConfigurationError(
        f"joint must be one of {list(JOINT_MODEL_NAMES)}: {joint!r}"
    )


def profile_by_name(name: str) -> LatencyProfile:
    """The latency profile behind a CLI ``--profile`` value."""
    if name == "calibrated":
        return calibrated_profile()
    if name == "paper":
        return paper_profile()
    raise ConfigurationError(
        f"unknown latency profile {name!r}; expected 'paper' or "
        f"'calibrated'"
    )


def run_joint_model_cell(
    joint: str,
    run: int,
    timeout: float,
    requests: int,
    seed: int,
    profile: Optional[LatencyProfile],
    trace_path: Optional[str] = None,
    trace_cell: str = "",
    metrics: Optional[MetricsRegistry] = None,
    backend: str = "event",
) -> SimulationRunResult:
    """One (run, TimeOut) cell of Table 5 or Table 6.

    *joint* selects the outcome-model family (see
    :data:`JOINT_MODEL_NAMES`) — the only difference between the two
    tables' grids, which is why this single module-level (picklable)
    cell function serves both.
    """
    metrics_ = run_release_pair_simulation(
        joint_model=joint_model(joint, run),
        timeout=timeout,
        requests=requests,
        seed=seed,
        profile=profile,
        trace_path=trace_path,
        trace_cell=trace_cell,
        metrics=metrics,
        backend=backend,
    )
    return SimulationRunResult(run, timeout, metrics_)


def draw_release_pair_arena(
    kwargs_list: Sequence[Dict[str, Any]],
    profile: LatencyProfile,
    seeds: Sequence[SeedSequenceFactory],
) -> ScriptArena:
    """A fused group's script arena, one row per distinct script.

    The group key fixes profile, requests and backend, so cells with
    equal ``(seed, joint, run)`` kwargs — the TimeOut cells of one
    run — observe one workload and share one row.  ``seeds`` holds each
    cell's factory.
    """
    return build_demand_script_arena(
        [joint_model(kw["joint"], kw["run"]) for kw in kwargs_list],
        profile.demand_difficulty,
        profile.release_latencies,
        int(kwargs_list[0]["requests"]),
        seeds,
        [(kw["seed"], kw["joint"], kw["run"]) for kw in kwargs_list],
    )


def run_release_pair_batch(
    kwargs_list: List[Dict[str, Any]],
    batch: "BatchContext",
) -> List[SimulationRunResult]:
    """Resolve a fused group of Table-5/6 cells over one shared arena.

    :func:`~repro.runtime.parallel.run_cells` calls this with the
    kwargs of every cell in a ``(fn, group)`` chunk; it counts into
    the *batch* context's metrics registry and runs in the calling
    process.  :func:`release_pair_cells` attaches the batch spec only
    to cells the arena can resolve (untraced, ``auto`` or ``columnar``
    backend, two or more releases), and its group key makes the cells
    share joint family, requests, profile and backend, so every group
    that reaches this function resolves here.

    One shared demand-script arena is drawn by
    :func:`draw_release_pair_arena`, one row per distinct script (a
    12-cell Table 5/6 group draws 4), one call to
    :func:`repro.runtime.columnar.resolve_cell_batch` reduces every cell
    to its Table-5/6 rows, and the caller commits the whole chunk to
    cache and store in one batch.  ``backend.batched_scripts`` counts
    the scripts drawn.  Results are bit-identical to the per-cell
    columnar path because each script is drawn from its cell's own
    named streams exactly as the standalone path draws it, and every
    cell keeps its own middleware generator.
    """
    metrics = batch.metrics
    count = len(kwargs_list)
    profile = kwargs_list[0].get("profile") or paper_profile()
    releases = len(profile.release_latencies)
    from repro.runtime import columnar

    seeds = [SeedSequenceFactory(kw["seed"]) for kw in kwargs_list]
    arena = draw_release_pair_arena(kwargs_list, profile, seeds)
    timeouts = [float(kw["timeout"]) for kw in kwargs_list]
    rows = columnar.resolve_cell_batch(
        arena,
        release_names=[
            f"Web-Service 1.{index}" for index in range(releases)
        ],
        timeouts=timeouts,
        adjudication_delay=P.ADJUDICATION_DELAY,
        spacings=[
            timeout + P.ADJUDICATION_DELAY + 0.5 for timeout in timeouts
        ],
        middleware_rngs=[
            factory.generator("middleware") for factory in seeds
        ],
    )
    if metrics is not None:
        # Fused cells are columnar cells: the per-backend counter counts
        # them (and gives the CI fallback budget its denominator).
        metrics.counter("backend.columnar_cells").inc(count)
        metrics.counter("backend.batched_cells").inc(count)
        metrics.counter("backend.batched_scripts").inc(arena.scripts)
    return [
        SimulationRunResult(kw["run"], kw["timeout"], row)
        for kw, row in zip(kwargs_list, rows)
    ]


def release_pair_cells(
    experiment: str,
    joint: str,
    seed: int,
    requests: int,
    timeouts: Sequence[float] = P.TIMEOUTS,
    runs: Sequence[int] = (1, 2, 3, 4),
    profile: Optional[LatencyProfile] = None,
    jobs: int = 1,
    trace_dir: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    trace_prefix: Optional[str] = None,
    backend: str = "event",
) -> List[CellSpec]:
    """Build the Table-5/6 grid as pipeline cells.

    All cells of one run share a seed (derived from *seed* and the run
    index via ``child_seed(f"{experiment}/run-{run}")``), so the
    TimeOut sweep observes one workload per run, as in the paper.
    *experiment* is both the cache namespace and the seed-derivation
    label — callers reusing a grid (the fidelity diff) pass the owning
    table's name so seeds and cache entries are shared, and set
    *trace_prefix* to keep their trace files distinct.

    *backend* selects the demand-resolution strategy per cell (see
    :data:`BACKENDS`) and lands in the cache key, so event-path and
    columnar-path results never alias.  Traced cells always run the
    event backend — traces are an event-loop artifact — so an explicit
    ``backend="columnar"`` is downgraded to ``"event"`` for them
    (``"auto"`` is left to fall back per cell, which counts toward the
    ``backend.fallback_cells`` metric).

    Traced cells carry ``key=None`` (a cache hit skips simulation and
    would leave an empty trace); kernel counters are recorded only on
    the inline ``jobs=1`` path — worker-process registries cannot
    report back to the parent.

    Cells the script arena can resolve — untraced, ``auto``/``columnar``
    backend, two or more releases — carry a
    :class:`~repro.runtime.parallel.BatchSpec` grouping them by
    everything a fused arena must share (experiment, joint family,
    requests, profile, backend), so ``run_cells`` draws each group into
    one script arena and resolves it with the release-major kernel via
    :func:`run_release_pair_batch`.  The other cells carry none and take
    the per-cell path: traced and event-backend cells, and a lone
    release, which samples its own marginal rather than scripted
    outcome codes (the per-cell columnar path pre-draws that marginal).
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {BACKENDS}: {backend!r}"
        )
    seeds = SeedSequenceFactory(seed)
    prefix = trace_prefix if trace_prefix is not None else experiment
    # Per-grid invariants, computed once: above all the profile's repr,
    # which the cache key and the batch group both carry.
    profile_name = repr(profile) if profile else "paper"
    cell_metrics = metrics if jobs == 1 else None
    untraced_batch = None
    releases = len((profile or paper_profile()).release_latencies)
    if backend in ("auto", "columnar") and releases >= 2:
        untraced_batch = BatchSpec(
            fn=run_release_pair_batch,
            group=(
                "release-pair",
                experiment,
                joint,
                requests,
                profile_name,
                backend,
            ),
        )
    cells = []
    for run in runs:
        cell_seed = seeds.child_seed(f"{experiment}/run-{run}")
        for timeout in timeouts:
            trace_path = None
            if trace_dir is not None:
                trace_path = os.path.join(
                    trace_dir, f"{prefix}-run{run}-t{timeout}.jsonl"
                )
            cell_backend = (
                "event"
                if trace_path is not None and backend == "columnar"
                else backend
            )
            cells.append(
                CellSpec(
                    experiment=experiment,
                    fn=run_joint_model_cell,
                    kwargs=dict(
                        joint=joint,
                        run=run,
                        timeout=timeout,
                        requests=requests,
                        seed=cell_seed,
                        profile=profile,
                        trace_path=trace_path,
                        trace_cell=f"{prefix}/run{run}/t{timeout}",
                        metrics=cell_metrics,
                        backend=cell_backend,
                    ),
                    key=None
                    if trace_path is not None
                    else dict(
                        joint=joint,
                        run=run,
                        timeout=timeout,
                        requests=requests,
                        seed=cell_seed,
                        profile=profile_name,
                        backend=cell_backend,
                    ),
                    batch=untraced_batch if trace_path is None else None,
                )
            )
    return cells


#: Cache-key fields of every :func:`release_pair_cells` cell: the
#: ``cache_schema`` of Tables 5/6 and of the fidelity diff.
RELEASE_PAIR_SCHEMA: Tuple[str, ...] = (
    "joint", "run", "timeout", "requests", "seed", "profile", "backend",
)


def release_pair_spec(
    name: str, joint: str, label: str, title: str
) -> ExperimentSpec:
    """The spec of one release-pair table: Table 5 or Table 6.

    The two tables differ only in their *name* (CLI subcommand, cache
    namespace and seed-derivation label), the *joint* outcome-model
    family (see :data:`JOINT_MODEL_NAMES`), the *label* heading each
    rendered block and the listing *title*.  The grid is the full
    4 runs x 3 TimeOuts under the ``--profile`` latency profile, at
    10,000 requests per cell (2,000 under ``--fast``).
    """

    def build(
        options: ExperimentOptions, sizes: Mapping[str, Any]
    ) -> List[CellSpec]:
        return release_pair_cells(
            name,
            joint,
            seed=options.seed,
            requests=sizes["requests"],
            profile=profile_by_name(options.profile),
            jobs=options.jobs,
            trace_dir=options.trace_dir,
            metrics=options.metrics,
            backend=options.backend,
        )

    def reduce(
        results: List[SimulationRunResult], options: ExperimentOptions
    ) -> SimulationTable:
        return SimulationTable(label=label, results=list(results))

    def render(table: SimulationTable, options: ExperimentOptions) -> str:
        return table.render()

    return ExperimentSpec(
        name=name,
        title=title,
        build_cells=build,
        reduce=reduce,
        render=render,
        full_sizes={"requests": P.REQUESTS_PER_RUN},
        fast_sizes={"requests": 2_000},
        workload_key="requests",
        cache_schema=RELEASE_PAIR_SCHEMA,
    )
