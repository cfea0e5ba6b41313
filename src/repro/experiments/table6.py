"""Experiment: Table 6 — simulation with independent release failures.

Identical grid to Table 5 but the two releases' outcomes are sampled
independently from their Table 3 marginals — the (implausible, per the
paper) independence reference point under which "fault-tolerance works":
the adjudicated system beats both releases on reliability.

The grid is the same :class:`~repro.pipeline.spec.ExperimentSpec` shape
as Table 5 — both declare
:func:`~repro.experiments.event_sim.release_pair_cells` grids and
differ only in the ``joint`` outcome-model parameter.
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

TABLE6_LABEL = "Table 6 (independence of release failures)"


def run_table6(
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
    """Run the Table 6 grid (independent releases) programmatically.

    Per-run child seeds keep the TimeOut sweep on one workload per run
    and results bit-identical for every ``jobs`` value; *trace_dir* /
    *metrics* / *backend* behave as in
    :func:`repro.experiments.table5.run_table5`.
    """
    cells = release_pair_cells(
        "table6",
        "independent",
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
    return SimulationTable(label=TABLE6_LABEL, results=results)


def _build_cells(
    options: ExperimentOptions, sizes: Dict[str, Any]
) -> List[CellSpec]:
    return release_pair_cells(
        "table6",
        "independent",
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
    return SimulationTable(label=TABLE6_LABEL, results=list(results))


def _render(table: SimulationTable, options: ExperimentOptions) -> str:
    return table.render()


TABLE6_SPEC = register(ExperimentSpec(
    name="table6",
    title="Table 6: event-driven simulation, independent releases (§5.2)",
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
