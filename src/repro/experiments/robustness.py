"""Extension: multi-stream robustness of the Table-2 durations.

The paper reports single-Monte-Carlo-stream switching durations.  At
pfd ~ 1e-3 scales, 50,000 demands realise only ~40-50 failures per
release, so those durations carry large across-stream variance.  This
module quantifies it: it reruns the Table-2 study over several seeds and
summarises, per (scenario, detection, criterion) cell, the min / median /
max first-satisfaction point and how often the criterion was attainable
at all — the numbers behind EXPERIMENTS.md's variance note.
"""

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bayes.priors import GridSpec
from repro.bayes.runner import AssessmentHistory
from repro.common.tables import render_table
from repro.experiments.scenarios import (
    Scenario,
    detection_models,
    scenario_1,
    scenario_2,
)
from repro.experiments.table2 import (
    FAST_DEMANDS,
    assessment_cells,
    table2_from_histories,
)
from repro.pipeline import ExperimentOptions, ExperimentSpec, register
from repro.runtime.parallel import CellSpec


@dataclass
class CellRobustness:
    """Across-stream summary of one Table-2 cell."""

    scenario: str
    detection: str
    criterion: str
    first_satisfied: List[Optional[int]] = field(default_factory=list)

    @property
    def attained(self) -> List[int]:
        return [d for d in self.first_satisfied if d is not None]

    @property
    def attainability(self) -> float:
        """Fraction of streams on which the criterion was satisfied."""
        if not self.first_satisfied:
            return float("nan")
        return len(self.attained) / len(self.first_satisfied)

    def summary(self) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        """(min, median, max) over the attaining streams."""
        attained = self.attained
        if not attained:
            return (None, None, None)
        return (
            min(attained),
            int(statistics.median(attained)),
            max(attained),
        )


@dataclass
class RobustnessReport:
    """The full multi-seed sweep."""

    seeds: List[int]
    cells: Dict[Tuple[str, str, str], CellRobustness] = field(
        default_factory=dict
    )

    def cell(
        self, scenario: str, detection: str, criterion: str
    ) -> CellRobustness:
        return self.cells[(scenario, detection, criterion)]

    def render(self) -> str:
        rows = []
        for (scenario, detection, criterion), cell in sorted(
            self.cells.items()
        ):
            low, median, high = cell.summary()
            rows.append([
                scenario, detection, criterion,
                f"{cell.attainability:.0%}",
                low, median, high,
            ])
        return render_table(
            ["Scenario", "Detection", "Criterion", "Attained",
             "Min", "Median", "Max"],
            rows,
            title=(
                f"Table-2 robustness across {len(self.seeds)} streams "
                f"(seeds {self.seeds})"
            ),
        )


def robustness_cells(
    seeds: Sequence[int],
    grid: GridSpec = GridSpec(96, 96, 32),
    total_demands: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    trace_dir: Optional[str] = None,
    scenarios: Optional[List[Scenario]] = None,
) -> List[CellSpec]:
    """The full seeds x scenarios x detections assessment grid.

    The seeds *are* the experiment design (no child seeds are derived),
    and each (seed, scenario, detection) assessment is its own cell in
    the shared ``assessment`` cache namespace — so a robustness sweep
    replays any cells a Table-2 / Fig-7 / Fig-8 run already computed at
    the same sizes, and vice versa.
    """
    if scenarios is None:
        scenarios = [scenario_1(), scenario_2()]
    cells: List[CellSpec] = []
    for seed in seeds:
        cells.extend(
            assessment_cells(
                "robustness",
                scenarios,
                seed=seed,
                grid=grid,
                total_demands=total_demands,
                checkpoint_every=checkpoint_every,
                trace_dir=trace_dir,
                trace_prefix=f"robustness-s{seed}",
            )
        )
    return cells


def report_from_histories(
    seeds: Sequence[int],
    histories: Sequence[AssessmentHistory],
    scenarios: Optional[List[Scenario]] = None,
) -> RobustnessReport:
    """Reduce the :func:`robustness_cells` grid (cell order) to the
    across-stream report."""
    if scenarios is None:
        scenarios = [scenario_1(), scenario_2()]
    report = RobustnessReport(seeds=list(seeds))
    per_seed = len(scenarios) * len(detection_models())
    for index, _seed in enumerate(seeds):
        result = table2_from_histories(
            scenarios, histories[index * per_seed:(index + 1) * per_seed]
        )
        for cell in result.cells:
            key = (cell.scenario, cell.detection, cell.criterion)
            if key not in report.cells:
                report.cells[key] = CellRobustness(*key)
            report.cells[key].first_satisfied.append(
                cell.decision.first_satisfied
            )
    return report


def _build_cells(
    options: ExperimentOptions, sizes: Mapping[str, Any]
) -> List[CellSpec]:
    return robustness_cells(
        sizes["seeds"],
        grid=sizes["grid"],
        total_demands=sizes["total_demands"],
        checkpoint_every=sizes["checkpoint_every"],
        trace_dir=options.trace_dir,
    )


def _reduce(
    histories: List[AssessmentHistory], options: ExperimentOptions
) -> RobustnessReport:
    sizes = ROBUSTNESS_SPEC.sizes(options)
    return report_from_histories(sizes["seeds"], histories)


def _render(report: RobustnessReport, options: ExperimentOptions) -> str:
    return report.render()


ROBUSTNESS_SPEC = register(ExperimentSpec(
    name="robustness",
    title="Extension: Table-2 durations across Monte-Carlo streams",
    build_cells=_build_cells,
    reduce=_reduce,
    render=_render,
    full_sizes={
        "seeds": (1, 2, 3, 4, 5),
        "grid": GridSpec(96, 96, 32),
        "total_demands": None,
        "checkpoint_every": None,
    },
    fast_sizes={
        "seeds": (1, 2, 3),
        "grid": GridSpec(64, 64, 24),
        "total_demands": FAST_DEMANDS,
        "checkpoint_every": 1_000,
    },
    workload_key="total_demands",
    cache_schema=(
        "scenario", "detection", "seed", "grid", "demands", "every",
    ),
))
