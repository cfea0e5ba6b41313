"""Experiments: Figs 7 and 8 — posterior percentiles vs demands.

Fig. 7 (Scenario 1) and Fig. 8 (Scenario 2) plot, against the number of
demands, the posterior pfd percentiles of the new release (channel B)
under the three detection regimes, plus channel A's 99% percentile under
perfect detection.  The figures support the paper's headline engineering
claim: the 90% percentile with perfect detection stays below the 99%
percentile with imperfect detection, so ~10-15% detection imperfection
costs less than ~9 percentage points of confidence.

Both figures are registered :class:`~repro.pipeline.spec.ExperimentSpec`
grids over the same (scenario, detection) assessment cells as Table 2
(shared ``assessment`` cache namespace), reduced to each figure's curve
set plus the confidence-error bound check.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping

from repro.bayes.priors import GridSpec
from repro.bayes.runner import AssessmentHistory
from repro.common.errors import ConfigurationError
from repro.common.tables import render_table
from repro.experiments.paper_params import FIG8_DEMANDS
from repro.experiments.scenarios import (
    Scenario,
    detection_models,
    scenario_1,
    scenario_2,
)
from repro.experiments.table2 import FAST_DEMANDS, assessment_cells
from repro.pipeline import ExperimentOptions, ExperimentSpec, register
from repro.runtime.parallel import CellSpec


@dataclass
class PercentileCurves:
    """The curve bundle of one figure."""

    scenario: str
    demands: List[int]
    #: curve label -> series (one value per checkpoint).
    series: Dict[str, List[float]] = field(default_factory=dict)

    #: The paper's Fig. 7/8 legend, mapped to our series keys.
    PAPER_CURVES = (
        "Ch B: 90% percentile (perfect)",
        "Ch B: 99% percentile (omission)",
        "Ch B: 99% percentile (back-to-back)",
        "Ch B: 99% percentile (perfect)",
        "Ch A: 99% percentile (perfect)",
    )

    def render(self, stride: int = 1) -> str:
        """Text table of the curves (every *stride*-th checkpoint)."""
        labels = [label for label in self.PAPER_CURVES if label in self.series]
        rows = []
        for i in range(0, len(self.demands), stride):
            rows.append(
                [self.demands[i]] + [self.series[k][i] for k in labels]
            )
        return render_table(
            ["Demands"] + labels,
            rows,
            title=f"Percentile curves ({self.scenario})",
            float_digits=6,
        )

    def detection_confidence_error_ok(self) -> bool:
        """The §5.1.1.4 bound: does B's 90% percentile under *perfect*
        detection stay below B's 99% percentile under *imperfect*
        detection (omission) at every checkpoint?

        When true, calling the imperfect-detection 99% figure "99%" errs
        by less than 9 percentage points of confidence.
        """
        perfect_90 = self.series["Ch B: 90% percentile (perfect)"]
        omission_99 = self.series["Ch B: 99% percentile (omission)"]
        return all(p90 <= p99 for p90, p99 in zip(perfect_90, omission_99))


def curves_from_histories(
    scenario_name: str, histories: Dict[str, AssessmentHistory]
) -> PercentileCurves:
    """Assemble the figure's curve set from per-detection histories."""
    perfect = histories["perfect"]
    omission = histories["omission"]
    back_to_back = histories["back-to-back"]
    demands = perfect.demand_axis
    curves = PercentileCurves(scenario=scenario_name, demands=demands)
    curves.series["Ch B: 90% percentile (perfect)"] = perfect.series(
        "percentile_b_90"
    )
    curves.series["Ch B: 99% percentile (perfect)"] = perfect.series(
        "percentile_b_99"
    )
    curves.series["Ch B: 99% percentile (omission)"] = omission.series(
        "percentile_b_99"
    )
    curves.series["Ch B: 99% percentile (back-to-back)"] = back_to_back.series(
        "percentile_b_99"
    )
    curves.series["Ch A: 99% percentile (perfect)"] = perfect.series(
        "percentile_a_99"
    )
    return curves


def figure_text(curves: PercentileCurves) -> str:
    """The full CLI/report rendering of one figure: curve table, ASCII
    plot and the §5.1.1.4 confidence-error bound check."""
    from repro.analysis.plots import plot_percentile_curves

    bound = curves.detection_confidence_error_ok()
    return "\n\n".join([
        curves.render(),
        plot_percentile_curves(curves),
        f"90%-perfect <= 99%-omission everywhere (the <9% confidence "
        f"error bound): {bound}",
    ])


def _figure_builder(
    experiment: str, scenario_factory: Callable[[], Scenario]
) -> Callable[[ExperimentOptions, Mapping[str, Any]], List[CellSpec]]:
    def build(
        options: ExperimentOptions, sizes: Mapping[str, Any]
    ) -> List[CellSpec]:
        scenario = scenario_factory()
        demands = sizes["total_demands"] or scenario.total_demands
        every = sizes["checkpoint_every"] or scenario.checkpoint_every
        if demands <= every:
            # One checkpoint is one x value, and a curve needs two.
            raise ConfigurationError(
                f"{experiment} plots a checkpoint every {every} demands "
                f"and needs two: requests must be at least {every + 1}, "
                f"got {demands}"
            )
        return assessment_cells(
            experiment,
            [scenario],
            seed=options.seed,
            grid=sizes["grid"],
            total_demands=sizes["total_demands"],
            checkpoint_every=sizes["checkpoint_every"],
            trace_dir=options.trace_dir,
        )

    return build


def _figure_reducer(
    scenario_factory: Callable[[], Scenario],
) -> Callable[[List[AssessmentHistory], ExperimentOptions], PercentileCurves]:
    def reduce(
        results: List[AssessmentHistory], options: ExperimentOptions
    ) -> PercentileCurves:
        histories = dict(zip(detection_models(), results))
        return curves_from_histories(scenario_factory().name, histories)

    return reduce


def _render(curves: PercentileCurves, options: ExperimentOptions) -> str:
    return figure_text(curves)


_ASSESSMENT_SCHEMA = (
    "scenario", "detection", "seed", "grid", "demands", "every",
)

FIG7_SPEC = register(ExperimentSpec(
    name="fig7",
    title="Fig. 7: Scenario 1 posterior percentile curves (§5.1.2)",
    build_cells=_figure_builder("fig7", scenario_1),
    reduce=_figure_reducer(scenario_1),
    render=_render,
    full_sizes={
        "grid": GridSpec(),
        "total_demands": None,
        "checkpoint_every": 2_000,
    },
    fast_sizes={
        "grid": GridSpec(96, 96, 32),
        "total_demands": FAST_DEMANDS,
    },
    workload_key="total_demands",
    cache_schema=_ASSESSMENT_SCHEMA,
))

FIG8_SPEC = register(ExperimentSpec(
    name="fig8",
    title="Fig. 8: Scenario 2 posterior percentile curves (§5.1.2)",
    build_cells=_figure_builder("fig8", scenario_2),
    reduce=_figure_reducer(scenario_2),
    render=_render,
    full_sizes={
        "grid": GridSpec(),
        "total_demands": FIG8_DEMANDS,
        "checkpoint_every": 500,
    },
    fast_sizes={
        "grid": GridSpec(96, 96, 32),
        "total_demands": 5_000,
        "checkpoint_every": 500,
    },
    workload_key="total_demands",
    cache_schema=_ASSESSMENT_SCHEMA,
))
