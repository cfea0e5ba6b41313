"""Experiment: Table 2 — duration of the managed upgrade.

For each scenario (§5.1.1.1), each detection regime (§5.1.1.3) and each
switching criterion (§5.1.1.2), determine after how many demands the
criterion is (first and stably) satisfied.  Mirrors the paper's Table 2
layout: rows = scenario x detection, columns = criteria.

The Monte-Carlo work is a grid of independent (scenario, detection)
assessment cells built by :func:`assessment_cells` — the same cells the
Fig-7/8 curves and the multi-seed robustness sweep consume, all under
the shared ``assessment`` cache namespace, so any of those experiments
replays cells another one already computed.
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

from repro.bayes.priors import GridSpec
from repro.bayes.runner import AssessmentHistory, SequentialAssessment
from repro.common.seeding import SeedSequenceFactory
from repro.common.tables import render_table
from repro.core.switching import SwitchDecision, evaluate_history
from repro.experiments.scenarios import (
    Scenario,
    detection_models,
    scenario_1,
    scenario_2,
)
from repro.obs.trace import JsonlTracer
from repro.pipeline import ExperimentOptions, ExperimentSpec, register
from repro.runtime.parallel import BatchSpec, CellSpec

if TYPE_CHECKING:
    from repro.runtime.batch import BatchContext

#: Cache namespace shared by every experiment built from assessment
#: cells (table2, fig7, fig8, robustness) — equal cells hit one entry.
ASSESSMENT_NAMESPACE = "assessment"

#: Reduced demand count for --fast assessment runs.  Coincidentally
#: equal to the paper's requests-per-run for Tables 5/6; this is a
#: smoke-run size, not that parameter, hence the lint suppression.
FAST_DEMANDS = 10_000  # repro-lint: disable=REPRO106


@dataclass
class Table2Cell:
    """One (scenario, detection, criterion) cell."""

    scenario: str
    detection: str
    criterion: str
    decision: SwitchDecision
    horizon: int

    @property
    def text(self) -> str:
        return self.decision.describe(self.horizon)


@dataclass
class Table2Result:
    """All cells plus the raw assessment histories (reused by Figs 7-8)."""

    cells: List[Table2Cell] = field(default_factory=list)
    histories: Dict[tuple, AssessmentHistory] = field(default_factory=dict)

    def cell(
        self, scenario: str, detection: str, criterion: str
    ) -> Table2Cell:
        for c in self.cells:
            if (c.scenario, c.detection, c.criterion) == (
                scenario,
                detection,
                criterion,
            ):
                return c
        raise KeyError((scenario, detection, criterion))

    def render(self) -> str:
        """Paper-layout text table."""
        criteria = ["criterion-1", "criterion-2", "criterion-3"]
        rows = []
        for (scenario, detection), _history in self.histories.items():
            row = [scenario, detection]
            for criterion in criteria:
                row.append(self.cell(scenario, detection, criterion).text)
            rows.append(row)
        return render_table(
            ["Scenario", "Detection", "Criterion 1", "Criterion 2",
             "Criterion 3"],
            rows,
            title="Table 2: Duration of managed upgrade",
        )


def _stream_assessment(
    scenario: Scenario,
    detection_name: str,
    seed: int,
    grid: GridSpec,
    demands: int,
    every: int,
) -> Tuple[SequentialAssessment, np.random.Generator]:
    """One (scenario, detection) cell's assessment and stream generator.

    The stream generator is re-derived from (*seed*, scenario name), so
    the same ground-truth demand stream is seen by every detection
    regime regardless of which process runs it; the detection model
    draws from the same generator after the stream, which is fine — the
    underlying true failure sequence is identical.
    """
    assessment = SequentialAssessment(
        ground_truth=scenario.ground_truth,
        detection=detection_models()[detection_name],
        prior=scenario.prior,
        total_demands=demands,
        checkpoint_every=every,
        confidence_targets=scenario.confidence_targets(),
        grid=grid,
    )
    return assessment, SeedSequenceFactory(seed).generator(
        f"{scenario.name}/stream"
    )


def _detection_history_cell(
    scenario: Scenario,
    detection_name: str,
    seed: int,
    grid: GridSpec,
    demands: int,
    every: int,
    trace_path: Optional[str] = None,
    trace_cell: str = "",
) -> AssessmentHistory:
    """One (scenario, detection) assessment on its own; module-level so
    worker processes can unpickle it.

    The per-cell reference the plan is held to: a grid runs its cells
    through :data:`PLANNED`, and a cell stripped of it runs here, with
    IEEE-bit identical histories and traces.  With *trace_path* set,
    every posterior checkpoint is appended to a JSONL trace (fields are
    functions of the seeded stream only, so the trace is bit-identical
    for any ``jobs`` value).
    """
    assessment, rng = _stream_assessment(
        scenario, detection_name, seed, grid, demands, every
    )
    tracer = (
        JsonlTracer(trace_path, cell=trace_cell)
        if trace_path is not None
        else None
    )
    try:
        return assessment.run(rng, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()


def _planned_histories(
    kwargs_list: List[Dict[str, Any]], batch: "BatchContext"
) -> List[AssessmentHistory]:
    """A chunk of assessment cells as one plan.

    Every cell draws its checkpoint counts in this process, then each
    distinct count vector of the chunk is evaluated once, in even
    shares fanned over the run's pool (see
    :func:`~repro.bayes.evaluation_plan.assess_planned`), and each
    cell's history is assembled from the summaries, a traced cell's
    checkpoint events written as it is assembled — histories and traces
    IEEE-bit identical to :func:`_detection_history_cell` on every
    cell, at any ``jobs``.
    ``bayes.planned_cells`` counts the cells executed.
    """
    from repro.bayes.evaluation_plan import assess_planned

    runs = [
        _stream_assessment(
            kw["scenario"], kw["detection_name"], kw["seed"], kw["grid"],
            kw["demands"], kw["every"],
        )
        for kw in kwargs_list
    ]
    traces = [
        None if kw["trace_path"] is None
        else (kw["trace_path"], kw["trace_cell"])
        for kw in kwargs_list
    ]
    histories = assess_planned(runs, batch.jobs, batch.map, traces)
    if batch.metrics is not None:
        batch.metrics.counter("bayes.planned_cells").inc(len(histories))
    return histories


#: Every assessment cell of a grid, traced or not, planned together.
PLANNED = BatchSpec(fn=_planned_histories, group=(ASSESSMENT_NAMESPACE,))


def assessment_cells(
    experiment: str,
    scenarios: Sequence[Scenario],
    seed: int,
    grid: GridSpec = GridSpec(),
    total_demands: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    trace_dir: Optional[str] = None,
    trace_prefix: Optional[str] = None,
) -> List[CellSpec]:
    """Build (scenario, detection) assessment cells for the pipeline.

    The same ground-truth demand stream seed is used across detection
    regimes (as in the paper: one set of 50,000 observations per
    scenario, distorted by each detection mechanism), so differences
    between rows are attributable to detection alone.  *experiment*
    labels trace files and cells; the cache namespace is always
    :data:`ASSESSMENT_NAMESPACE`, so table2 / fig7 / fig8 / robustness
    share cached cells.

    Every cell carries the :data:`PLANNED` batch spec: ``run_cells``
    runs them in chunks of up to ``BATCH_MAX_CELLS`` cells, each chunk
    one plan that evaluates every distinct count vector once, in even
    shares over the pool (:func:`_planned_histories`), and commits as
    one group file.  Traced cells bypass the cache and the store
    (``key=None``); the plan writes their checkpoint events as it
    assembles their histories, so tracing does not change how many
    posterior evaluations a grid makes.
    """
    import scipy.special  # noqa: F401  (forked pool workers inherit it)

    prefix = trace_prefix if trace_prefix is not None else experiment
    cells = []
    for scenario in scenarios:
        demands = total_demands or scenario.total_demands
        every = checkpoint_every or scenario.checkpoint_every
        for name in detection_models():
            trace_path = None
            if trace_dir is not None:
                trace_path = os.path.join(
                    trace_dir, f"{prefix}-{scenario.name}-{name}.jsonl"
                )
            cells.append(
                CellSpec(
                    experiment=ASSESSMENT_NAMESPACE,
                    fn=_detection_history_cell,
                    kwargs=dict(
                        scenario=scenario,
                        detection_name=name,
                        seed=seed,
                        grid=grid,
                        demands=demands,
                        every=every,
                        trace_path=trace_path,
                        trace_cell=f"{prefix}/{scenario.name}/{name}",
                    ),
                    key=None
                    if trace_path is not None
                    else dict(
                        scenario=scenario.name,
                        detection=name,
                        seed=seed,
                        grid=repr(grid),
                        demands=demands,
                        every=every,
                    ),
                    batch=PLANNED,
                )
            )
    return cells


def table2_from_histories(
    scenarios: Sequence[Scenario],
    histories: Sequence[AssessmentHistory],
) -> Table2Result:
    """Reduce assessment histories (cell order) to the Table-2 layout.

    *histories* must be in :func:`assessment_cells` grid order:
    scenario-major, detection regimes in paper order within each.
    """
    result = Table2Result()
    names = list(detection_models())
    index = 0
    for scenario in scenarios:
        criteria = scenario.criteria()
        for detection_name in names:
            history = histories[index]
            index += 1
            result.histories[(scenario.name, detection_name)] = history
            horizon = history.final().demands
            for criterion_name, criterion in criteria.items():
                decision = evaluate_history(criterion, history)
                result.cells.append(
                    Table2Cell(
                        scenario=scenario.name,
                        detection=detection_name,
                        criterion=criterion_name,
                        decision=decision,
                        horizon=horizon,
                    )
                )
    return result


def _build_cells(
    options: ExperimentOptions, sizes: Mapping[str, object]
) -> List[CellSpec]:
    return assessment_cells(
        "table2",
        [scenario_1(), scenario_2()],
        seed=options.seed,
        grid=sizes["grid"],
        total_demands=sizes["total_demands"],
        checkpoint_every=sizes["checkpoint_every"],
        trace_dir=options.trace_dir,
    )


def _reduce(
    results: List[AssessmentHistory], options: ExperimentOptions
) -> Table2Result:
    return table2_from_histories([scenario_1(), scenario_2()], results)


def _render(result: Table2Result, options: ExperimentOptions) -> str:
    return result.render()


TABLE2_SPEC = register(ExperimentSpec(
    name="table2",
    title="Table 2: duration of the managed upgrade (§5.1)",
    build_cells=_build_cells,
    reduce=_reduce,
    render=_render,
    full_sizes={
        "grid": GridSpec(),
        "total_demands": None,
        "checkpoint_every": None,
    },
    fast_sizes={
        "grid": GridSpec(96, 96, 32),
        "total_demands": FAST_DEMANDS,
        "checkpoint_every": 1_000,
    },
    workload_key="total_demands",
    cache_schema=(
        "scenario", "detection", "seed", "grid", "demands", "every",
    ),
))
