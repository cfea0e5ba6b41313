"""Experiment: asyncio service substrate under load, cross-checked.

Each cell drives N requests through the *real* asyncio middleware
(:mod:`repro.services.aio`) on the deterministic virtual-clock loop —
bounded arrival queue, worker pool, streaming reduction — and runs the
same (joint, run, timeout, seed) cell through
:func:`~repro.experiments.event_sim.run_release_pair_simulation`.  The
two substrates share the demand script, the request stream
(``arguments=(i,)``, ``reference_answer=i``) and every operating-mode
rule, so their Table-5/6 rows must agree within the documented
tolerance envelope:

* every count is exact, **except** the System CR/NER split in modes
  that can adjudicate several *disagreeing* valid responses
  (max-reliability; dynamic with ``min_responses >= 2``).  There the
  kernel's shared tie-break stream and the async per-demand streams
  may resolve individual ties differently; the CR+NER sum stays exact
  and the split may move by at most the number of tie demands
  (bounded here by ``TIE_FRACTION`` of requests).
* MET and system-time means agree to ``MET_RELATIVE_TOL`` — the kernel
  measures durations as differences of absolute event times
  (``fl(start + d) - start``), the async substrate keeps ``d`` exact,
  a per-demand rounding of order one ulp.

The rendered output contains only deterministic content (rows +
cross-check verdict), so the cell renders identically whichever
simulation *backend* computed the reference — which is exactly what the
backend-equivalence CI job asserts.  Wall-clock throughput is carried
on the result object for the benchmark harness but never rendered.
"""

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.seeding import SeedSequenceFactory
from repro.core.modes import ModeConfig, OperatingMode
from repro.experiments import paper_params as P
from repro.experiments.paper_params import DEFAULT_SEED
from repro.experiments.event_sim import (
    joint_model,
    paper_profile,
    run_release_pair_simulation,
)
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import ExperimentOptions, ExperimentSpec, register
from repro.runtime.parallel import CellSpec
from repro.runtime.sampling import build_demand_script
from repro.services.aio.endpoint import AsyncEndpoint
from repro.services.aio.load import run_load
from repro.services.aio.middleware import AsyncUpgradeMiddleware
from repro.services.wsdl import default_wsdl
from repro.simulation.release_model import ReleaseBehaviour
from repro.simulation.timing import SystemTimingPolicy

#: Operating modes exercised by the grid, by spec-level name.
MODE_NAMES = ("reliability", "responsiveness", "dynamic-1", "sequential")

#: Largest tolerated relative MET / system-time deviation (event-time
#: rounding, about one ulp per demand).
MET_RELATIVE_TOL = 1e-9

#: Ceiling on the System CR/NER split movement in tie-capable modes, as
#: a fraction of requests (measured tie rates are well under 1%).
TIE_FRACTION = 0.02

#: Absolute slack on exact counts: knife-edge float disagreements
#: between ``fl(start+d) < fl(start+T)`` (kernel) and ``d < T`` (async)
#: are possible in principle; none observed, a handful tolerated at
#: million scale.
COUNT_SLACK_PER_MILLION = 10

#: ``dynamic-<k>``: parallel-dynamic mode adjudicating after k responses.
_DYNAMIC_MODE = re.compile(r"dynamic-([1-9][0-9]*)")


def mode_config(name: str) -> ModeConfig:
    """The ModeConfig behind a spec-level mode name."""
    if name == "reliability":
        return ModeConfig.max_reliability()
    if name == "responsiveness":
        return ModeConfig.max_responsiveness()
    if name == "sequential":
        return ModeConfig.sequential()
    match = _DYNAMIC_MODE.fullmatch(name)
    if match is None:
        raise ConfigurationError(f"unknown service_load mode: {name!r}")
    return ModeConfig.dynamic(int(match.group(1)))


def _tie_capable(name: str) -> bool:
    """Modes whose adjudication can draw on disagreeing valid results."""
    config = mode_config(name)
    # min_responses is set only in parallel-dynamic mode.
    return (
        config.mode is OperatingMode.PARALLEL_RELIABILITY
        or (config.min_responses or 1) >= 2
    )


def _count_slack(requests: int) -> int:
    return max(2, (requests * COUNT_SLACK_PER_MILLION) // 1_000_000)


def cross_check(
    load_rows: Dict[str, Dict[str, Any]],
    sim_rows: Dict[str, Dict[str, Any]],
    requests: int,
    mode: str,
) -> List[str]:
    """Compare async-load rows against simulation rows.

    Returns a list of human-readable violations (empty = within the
    tolerance envelope documented in the module docstring).
    """
    problems: List[str] = []
    slack = _count_slack(requests)
    tie_budget = max(slack, int(requests * TIE_FRACTION))
    for row_name, sim_row in sim_rows.items():
        load_row = load_rows.get(row_name)
        if load_row is None:
            problems.append(f"{row_name}: missing from load rows")
            continue
        tie_split = _tie_capable(mode) and row_name == "System"
        for column, sim_value in sim_row.items():
            load_value = load_row[column]
            if isinstance(sim_value, float) or column == "MET":
                sim_f = float(sim_value)
                load_f = float(load_value)
                if sim_f != sim_f and load_f != load_f:
                    continue  # both NaN (no responses)
                denominator = max(abs(sim_f), 1e-12)
                if abs(load_f - sim_f) / denominator > MET_RELATIVE_TOL:
                    problems.append(
                        f"{row_name}.{column}: {load_f!r} vs {sim_f!r} "
                        f"(rel tol {MET_RELATIVE_TOL})"
                    )
                continue
            budget = tie_budget if (
                tie_split and column in ("CR", "NER")
            ) else slack
            if abs(int(load_value) - int(sim_value)) > budget:
                problems.append(
                    f"{row_name}.{column}: {load_value} vs {sim_value} "
                    f"(tolerance {budget})"
                )
        if tie_split:
            load_sum = int(load_row["CR"]) + int(load_row["NER"])
            sim_sum = int(sim_row["CR"]) + int(sim_row["NER"])
            if abs(load_sum - sim_sum) > slack:
                problems.append(
                    f"{row_name}: CR+NER {load_sum} vs {sim_sum} "
                    f"(tolerance {slack})"
                )
    return problems


@dataclass
class ServiceLoadCellResult:
    """One mode's load run + simulation cross-check."""

    joint: str
    run: int
    timeout: float
    requests: int
    seed: int
    mode: str
    concurrency: int
    queue_capacity: int
    backend: str
    load_rows: Dict[str, Dict[str, Any]]
    sim_rows: Dict[str, Dict[str, Any]]
    mismatches: List[str]
    #: Wall-clock figures for the benchmark harness; deliberately not
    #: rendered (non-deterministic) and stale when served from cache.
    wall_seconds: float = 0.0
    throughput: float = 0.0
    peak_queue_depth: int = 0
    peak_reorder_buffer: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def all_rows(self) -> Dict[str, Dict[str, Any]]:
        """Load and reference rows in one mapping.

        Keyed ``load:<row>`` / ``sim:<row>`` so the generic
        cross-backend bit-identity test covers both halves: the
        simulation reference must be bit-identical whichever backend
        computed it, and the async load rows cannot depend on the
        reference backend at all.
        """
        rows = {
            f"load:{name}": dict(row)
            for name, row in self.load_rows.items()
        }
        rows.update(
            (f"sim:{name}", dict(row))
            for name, row in self.sim_rows.items()
        )
        return rows


@dataclass
class ServiceLoadReport:
    """All modes of one service-load grid."""

    results: List[ServiceLoadCellResult] = field(default_factory=list)

    def render(self) -> str:
        lines: List[str] = []
        for result in self.results:
            lines.append(
                f"service_load mode={result.mode} joint={result.joint} "
                f"run={result.run} timeout={result.timeout} "
                f"requests={result.requests} seed={result.seed}"
            )
            for row_name in sorted(result.load_rows):
                row = result.load_rows[row_name]
                met = row["MET"]
                met_text = f"{met:.6f}" if met == met else "nan"
                lines.append(
                    f"  {row_name}: CR={row['CR']} NER={row['NER']} "
                    f"EER={row['EER']} NRDT={row['NRDT']} MET={met_text}"
                )
            if result.ok:
                lines.append("  cross-check: OK (within tolerance envelope)")
            else:
                lines.append(
                    f"  cross-check: {len(result.mismatches)} violation(s)"
                )
                for problem in result.mismatches:
                    lines.append(f"    - {problem}")
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"


def run_service_load_cell(
    joint: str,
    run: int,
    timeout: float,
    requests: int,
    seed: int,
    mode: str,
    concurrency: int = 32,
    queue_capacity: int = 128,
    backend: str = "auto",
    metrics: Optional[MetricsRegistry] = None,
) -> ServiceLoadCellResult:
    """One cell: async load run + simulation reference + cross-check.

    *metrics* reaches the reference simulation only, so the cell counts
    under ``backend.columnar_cells`` or ``backend.fallback_cells`` like
    every other backend-aware cell.
    """
    model = joint_model(joint, run)
    profile = paper_profile()
    seeds = SeedSequenceFactory(seed)
    script = build_demand_script(
        model,
        profile.demand_difficulty,
        profile.release_latencies,
        requests,
        seeds,
    )
    endpoints = []
    for index, latency in enumerate(profile.release_latencies):
        marginal = (
            model.marginal_first() if index == 0 else model.marginal_second()
        )
        wsdl = default_wsdl(
            "Web-Service", f"node-{index + 1}", release=f"1.{index}"
        )
        endpoints.append(
            AsyncEndpoint(
                wsdl,
                ReleaseBehaviour(f"Web-Service 1.{index}", marginal, latency),
            )
        )
    middleware = AsyncUpgradeMiddleware(
        endpoints,
        SystemTimingPolicy(
            timeout=timeout, adjudication_delay=P.ADJUDICATION_DELAY
        ),
        adjudication_seed=seeds.child_seed("middleware"),
        mode=mode_config(mode),
        script=script,
    )
    load = run_load(
        middleware,
        requests,
        concurrency=concurrency,
        queue_capacity=queue_capacity,
    )
    sim = run_release_pair_simulation(
        model,
        timeout,
        requests=requests,
        seed=seed,
        mode=mode_config(mode),
        metrics=metrics,
        backend=backend,
    )
    load_rows = load.metrics.all_rows()
    sim_rows = sim.all_rows()
    return ServiceLoadCellResult(
        joint=joint,
        run=run,
        timeout=timeout,
        requests=requests,
        seed=seed,
        mode=mode,
        concurrency=concurrency,
        queue_capacity=queue_capacity,
        backend=backend,
        load_rows=load_rows,
        sim_rows=sim_rows,
        mismatches=cross_check(load_rows, sim_rows, requests, mode),
        wall_seconds=load.wall_seconds,
        throughput=load.throughput,
        peak_queue_depth=load.peak_queue_depth,
        peak_reorder_buffer=load.peak_reorder_buffer,
    )


def service_load_cells(
    seed: int = DEFAULT_SEED,
    requests: int = 100_000,
    joint: str = "correlated",
    run: int = 2,
    timeout: float = 2.0,
    modes: Sequence[str] = MODE_NAMES,
    concurrency: int = 32,
    queue_capacity: int = 128,
    backend: str = "auto",
    jobs: int = 1,
    metrics: Optional[MetricsRegistry] = None,
) -> List[CellSpec]:
    """The service-load grid: one cell per operating mode.

    As in the Table-5/6 grids, *metrics* reaches the cells only on the
    inline ``jobs=1`` path (worker-process registries cannot report
    back to the parent), and never the cache key.
    """
    seeds = SeedSequenceFactory(seed)
    cells = []
    for mode in modes:
        mode_config(mode)  # validate early
        cell_seed = seeds.child_seed(f"service_load/{mode}")
        kwargs = dict(
            joint=joint,
            run=run,
            timeout=timeout,
            requests=requests,
            seed=cell_seed,
            mode=mode,
            concurrency=concurrency,
            queue_capacity=queue_capacity,
            backend=backend,
        )
        cells.append(
            CellSpec(
                experiment="service_load",
                fn=run_service_load_cell,
                kwargs=dict(kwargs, metrics=metrics if jobs == 1 else None),
                key=dict(kwargs),
            )
        )
    return cells


def _build_cells(
    options: ExperimentOptions, sizes: Dict[str, Any]
) -> List[CellSpec]:
    return service_load_cells(
        seed=options.seed,
        requests=sizes["requests"],
        concurrency=sizes["concurrency"],
        queue_capacity=sizes["queue_capacity"],
        backend=options.backend,
        jobs=options.jobs,
        metrics=options.metrics,
    )


def _reduce(
    results: List[ServiceLoadCellResult], options: ExperimentOptions
) -> ServiceLoadReport:
    return ServiceLoadReport(results=list(results))


def _render(report: ServiceLoadReport, options: ExperimentOptions) -> str:
    return report.render()


SERVICE_LOAD_SPEC = register(ExperimentSpec(
    name="service_load",
    title="Service load: asyncio substrate vs simulation (Table-5/6 rows)",
    build_cells=_build_cells,
    reduce=_reduce,
    render=_render,
    full_sizes={
        "requests": 100_000,
        "concurrency": 32,
        "queue_capacity": 128,
    },
    fast_sizes={"requests": 2_000},
    workload_key="requests",
    cache_schema=(
        "joint", "run", "timeout", "requests", "seed", "mode",
        "concurrency", "queue_capacity", "backend",
    ),
))
