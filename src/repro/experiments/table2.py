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
from typing import Dict, List, Mapping, Optional, Sequence

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
from repro.runtime.parallel import CellSpec

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
    """One (scenario, detection) assessment; module-level so worker
    processes can unpickle it.

    The stream generator is re-derived from (*seed*, scenario name)
    inside the cell, so the same ground-truth demand stream is seen by
    every detection regime regardless of which process runs it; its
    initial state is also what identifies the stream to the runner's
    checkpoint memo.  With
    *trace_path* set, every posterior checkpoint is appended to a JSONL
    trace (fields are functions of the seeded stream only, so the
    trace is bit-identical for any ``jobs`` value).
    """
    detection = detection_models()[detection_name]
    assessment = SequentialAssessment(
        ground_truth=scenario.ground_truth,
        detection=detection,
        prior=scenario.prior,
        total_demands=demands,
        checkpoint_every=every,
        confidence_targets=scenario.confidence_targets(),
        grid=grid,
    )
    # Identical stream seed across regimes; the detection model draws
    # from the same generator after the stream, which is fine — the
    # underlying true failure sequence is identical.
    rng = SeedSequenceFactory(seed).generator(f"{scenario.name}/stream")
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
    share cached cells.  Traced cells bypass the cache (``key=None``).
    Each cell's ``cost`` is its number of posterior checkpoints, so a
    process pool starts the longest assessments first.

    A process that runs several cells, inline or as a pool worker,
    builds one white-box assessor per (prior, grid) in a row, and a
    cell whose regime follows another of the same stream there
    evaluates only the count vectors that regime did not reach (see
    :meth:`~repro.bayes.runner.SequentialAssessment.run`).  Results
    are IEEE-bit identical whichever process runs which cells.
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
                    cost=demands // every,
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
