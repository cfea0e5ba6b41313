"""Extension experiment: 1-out-of-N with several operational releases.

The paper's architecture (§4.1) runs "several releases of the WS" but
its evaluation stops at two.  This extension sweeps the number of
simultaneously deployed releases (the old release plus N-1 successors,
outcome-correlated along the release chain via
:class:`~repro.simulation.correlation.ChainedOutcomeModel`) and measures
what each extra release buys:

* availability keeps improving (any release answering within TimeOut
  suffices);
* correct responses improve with diminishing returns — chained
  correlation means each new release shares most failure behaviour with
  its ancestor;
* system MET grows toward the TimeOut (the middleware waits for the
  slowest of N) — the §4.2 mode-1 capacity/latency price.
"""

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.seeding import SeedSequenceFactory
from repro.common.tables import render_table
from repro.core.modes import ModeConfig
from repro.experiments import paper_params as P
from repro.experiments.event_sim import (
    LatencyProfile,
    calibrated_profile,
    run_scripted_cell,
)
from repro.experiments.paper_params import DEFAULT_SEED
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import ExperimentOptions, ExperimentSpec, register
from repro.runtime.parallel import CellSpec
from repro.runtime.sampling import build_demand_script
from repro.simulation.correlation import ChainedOutcomeModel
from repro.simulation.metrics import SystemMetrics


def chained_model(run: int = 1) -> ChainedOutcomeModel:
    """Chain the Table-3 marginal through the Table-4 conditional."""
    first, _second = P.TABLE3_MARGINALS[run]
    from repro.simulation.correlation import ConditionalOutcomeMatrix

    return ChainedOutcomeModel(
        first, ConditionalOutcomeMatrix.symmetric(P.TABLE4_DIAGONALS[run])
    )


def run_n_release_simulation(
    n_releases: int,
    timeout: float = 2.0,
    requests: int = 5_000,
    seed: int = DEFAULT_SEED,
    run: int = 1,
    profile: Optional[LatencyProfile] = None,
    mode: Optional[ModeConfig] = None,
    backend: str = "event",
    metrics: Optional[MetricsRegistry] = None,
) -> SystemMetrics:
    """One 1-out-of-N cell through the full event-driven stack.

    Builds the chained outcome model of *run* and an N-release profile
    (the profile's first release latency law for every release), draws
    the cell's demand script and hands both to
    :func:`~repro.experiments.event_sim.run_scripted_cell`, which
    resolves it exactly as a Table-5/6 cell: *mode* selects the §4.2
    operating mode (default max-reliability) and *backend* the
    demand-resolution strategy.
    """
    if n_releases < 1:
        raise ConfigurationError(f"n_releases must be >= 1: {n_releases!r}")
    base = profile or calibrated_profile()
    profile = LatencyProfile(
        name=base.name,
        demand_difficulty=base.demand_difficulty,
        release_latencies=[base.release_latencies[0]] * n_releases,
    )
    model = chained_model(run)
    seeds = SeedSequenceFactory(seed)
    script = build_demand_script(
        model if n_releases >= 2 else None,
        profile.demand_difficulty,
        profile.release_latencies,
        requests,
        seeds,
    )
    return run_scripted_cell(
        script,
        seeds,
        profile,
        [model.marginal_nth(index) for index in range(n_releases)],
        timeout,
        requests,
        mode=mode,
        backend=backend,
        metrics=metrics,
    )


@dataclass
class MultiReleaseSweep:
    """Results of a 1-out-of-N sweep."""

    release_counts: List[int]
    metrics: List[SystemMetrics]

    @property
    def profile(self) -> str:
        """Name of the latency profile the sweep's cells ran under.

        Sweep cells pass no profile, so :func:`run_n_release_simulation`
        takes the calibrated one, whatever ``--profile`` says.
        """
        return calibrated_profile().name

    def render(self) -> str:
        rows = []
        for n, metric in zip(self.release_counts, self.metrics):
            system = metric.system
            rows.append([
                n,
                system.availability,
                system.reliability,
                system.counts.non_evident,
                system.mean_execution_time,
            ])
        return render_table(
            ["Releases (1-out-of-N)", "Availability", "Reliability",
             "Delivered NER", "System MET"],
            rows,
            title="Multi-release sweep (chained correlation, run 1)",
        )


def sweep_cells(
    release_counts: Sequence[int] = (1, 2, 3, 4),
    timeout: float = 2.0,
    requests: int = 5_000,
    seed: int = DEFAULT_SEED,
    run: int = 1,
    backend: str = "event",
    jobs: int = 1,
    metrics: Optional[MetricsRegistry] = None,
) -> List[CellSpec]:
    """One 1-out-of-N cell per release count; every cell derives its own
    root seed so results are bit-identical for any ``jobs`` value.
    *backend* lands in the cache key, so event-path and columnar-path
    results never alias.  As in the Table-5/6 grids, backend counters
    are recorded only on the inline ``jobs=1`` path (worker-process
    registries cannot report back to the parent)."""
    seeds = SeedSequenceFactory(seed)
    cells = []
    for n in release_counts:
        cell_seed = seeds.child_seed(f"multi-release/n-{n}")
        cells.append(
            CellSpec(
                experiment="multi_release",
                fn=run_n_release_simulation,
                kwargs=dict(
                    n_releases=n,
                    timeout=timeout,
                    requests=requests,
                    seed=cell_seed,
                    run=run,
                    backend=backend,
                    metrics=metrics if jobs == 1 else None,
                ),
                key=dict(
                    n_releases=n,
                    timeout=timeout,
                    requests=requests,
                    seed=cell_seed,
                    run=run,
                    backend=backend,
                ),
            )
        )
    return cells


def _build_cells(
    options: ExperimentOptions, sizes: Mapping[str, Any]
) -> List[CellSpec]:
    return sweep_cells(
        requests=sizes["requests"],
        seed=options.seed,
        backend=options.backend,
        jobs=options.jobs,
        metrics=options.metrics,
    )


def _reduce(
    metrics: List[SystemMetrics], options: ExperimentOptions
) -> MultiReleaseSweep:
    return MultiReleaseSweep([1, 2, 3, 4], list(metrics))


def _render(sweep: MultiReleaseSweep, options: ExperimentOptions) -> str:
    return sweep.render()


MULTI_RELEASE_SPEC = register(ExperimentSpec(
    name="multirelease",
    title="Extension: 1-out-of-N sweep over deployed releases (§4.1)",
    build_cells=_build_cells,
    reduce=_reduce,
    render=_render,
    full_sizes={"requests": 5_000},
    fast_sizes={"requests": 1_500},
    workload_key="requests",
    cache_schema=(
        "n_releases", "timeout", "requests", "seed", "run", "backend",
    ),
))
