"""Experiment: Table 5 — simulation with positively correlated releases.

Four runs (Table 3 marginals + Table 4 conditionals, correlation 0.9 down
to 0.4) x three TimeOuts (1.5 / 2.0 / 3.0 s), 10,000 requests each,
through the full event-driven managed-upgrade stack.

The grid is declared as a :class:`~repro.pipeline.spec.ExperimentSpec`
(cells built by
:func:`~repro.experiments.event_sim.release_pair_cells`, the one cell
builder Tables 5 and 6 share), so the unified engine supplies the
process pool, the result cache, per-cell tracing and metrics: ``jobs=N``
is bit-identical to ``jobs=1`` because every run derives its own root
seed from the grid seed via ``SeedSequenceFactory.child_seed``.
"""

from typing import Any, Dict, List, Optional, Sequence

from repro.experiments import paper_params as P
from repro.experiments.paper_params import DEFAULT_SEED
from repro.experiments.event_sim import (
    LatencyProfile,
    SimulationRunResult,
    SimulationTable,
    profile_by_name,
    release_pair_cells,
)
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import ExperimentOptions, ExperimentSpec, register
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import CellSpec, run_cells

TABLE5_LABEL = "Table 5 (positive correlation between release failures)"


def run_table5(
    seed: int = DEFAULT_SEED,
    requests: int = P.REQUESTS_PER_RUN,
    timeouts: Sequence[float] = P.TIMEOUTS,
    runs: Sequence[int] = (1, 2, 3, 4),
    profile: Optional[LatencyProfile] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    trace_dir: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    backend: str = "event",
) -> SimulationTable:
    """Run the Table 5 grid (correlated releases) programmatically.

    Equivalent to running the registered spec; kept as the documented
    library entry point (tests, report sections and benchmarks call it
    with explicit grid parameters).  The library default is the
    reference ``event`` backend; the registered spec and CLI default to
    ``auto`` (columnar where proven equivalent).
    """
    cells = release_pair_cells(
        "table5",
        "correlated",
        seed=seed,
        requests=requests,
        timeouts=timeouts,
        runs=runs,
        profile=profile,
        jobs=jobs,
        trace_dir=trace_dir,
        metrics=metrics,
        backend=backend,
    )
    results = run_cells(cells, jobs=jobs, cache=cache, metrics=metrics)
    return SimulationTable(label=TABLE5_LABEL, results=results)


def _build_cells(
    options: ExperimentOptions, sizes: Dict[str, Any]
) -> List[CellSpec]:
    return release_pair_cells(
        "table5",
        "correlated",
        seed=options.seed,
        requests=sizes["requests"],
        profile=profile_by_name(options.profile),
        jobs=options.jobs,
        trace_dir=options.trace_dir,
        metrics=options.metrics,
        backend=options.backend,
    )


def _reduce(
    results: List[SimulationRunResult], options: ExperimentOptions
) -> SimulationTable:
    return SimulationTable(label=TABLE5_LABEL, results=list(results))


def _render(table: SimulationTable, options: ExperimentOptions) -> str:
    return table.render()


TABLE5_SPEC = register(ExperimentSpec(
    name="table5",
    title="Table 5: event-driven simulation, correlated releases (§5.2)",
    build_cells=_build_cells,
    reduce=_reduce,
    render=_render,
    full_sizes={"requests": P.REQUESTS_PER_RUN},
    fast_sizes={"requests": 2_000},
    workload_key="requests",
    cache_schema=(
        "joint", "run", "timeout", "requests", "seed", "profile",
        "backend",
    ),
))
