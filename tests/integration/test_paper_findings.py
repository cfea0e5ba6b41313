"""Integration checks of the paper's qualitative findings (reduced sizes).

These are the claims the reproduction is accountable for (DESIGN.md):

* §5.2.3 obs. 1 — system availability exceeds each release's;
* §5.2.3 obs. 2 — system MET exceeds each release's;
* §5.2.3 obs. 3 — under high correlation the 1-out-of-2 system's
  correctness rate beats both releases; at lower correlation it stays
  above the weaker release;
* §5.2.3 obs. 4 — under independence the system beats both releases;
* §5.1.1.4 — the detection-imperfection confidence error is bounded:
  B's 90% percentile (perfect detection) <= B's 99% percentile
  (omission) along the whole trajectory;
* Table 2 shape — Scenario 2 needs far fewer demands than Scenario 1,
  and more-optimistic detection never lengthens Criterion 2's duration.
"""

import pytest

from repro.analysis.stats import confidence_error_bound, reliability_ordering
from repro.bayes.priors import GridSpec
from repro.core.switching import evaluate_history
from repro.experiments import paper_params as P
from repro.experiments.event_sim import run_release_pair_simulation
from repro.experiments.percentile_curves import curves_from_histories
from repro.experiments.scenarios import (
    detection_models,
    scenario_1,
    scenario_2,
)
from repro.experiments.table2 import assessment_cells
from repro.runtime.parallel import run_cells


@pytest.fixture(scope="module")
def correlated_cells():
    return {
        run: run_release_pair_simulation(
            P.correlated_model(run), timeout=3.0, requests=6_000,
            seed=100 + run,
        )
        for run in (1, 4)
    }


@pytest.fixture(scope="module")
def independent_cell():
    return run_release_pair_simulation(
        P.independent_model(2), timeout=3.0, requests=6_000, seed=200
    )


def histories(scenario, total_demands):
    """The scenario's history under each detection regime."""
    cells = assessment_cells(
        "findings", [scenario], seed=3, grid=GridSpec(96, 96, 32),
        total_demands=total_demands,
    )
    return dict(zip(detection_models(), run_cells(cells)))


@pytest.fixture(scope="module")
def scenario_histories():
    return {
        "scenario-1": histories(
            scenario_1(checkpoint_every=1_000), total_demands=20_000
        ),
        "scenario-2": histories(
            scenario_2(checkpoint_every=250), total_demands=10_000
        ),
    }


class TestEventSimFindings:
    def test_obs1_system_availability_highest(self, correlated_cells,
                                              independent_cell):
        for metrics in (*correlated_cells.values(), independent_cell):
            system = metrics.system.availability
            assert system >= metrics.releases[0].availability
            assert system >= metrics.releases[1].availability

    def test_obs2_system_met_highest(self, correlated_cells,
                                     independent_cell):
        for metrics in (*correlated_cells.values(), independent_cell):
            system = metrics.system.mean_execution_time
            assert system > metrics.releases[0].mean_execution_time
            assert system > metrics.releases[1].mean_execution_time

    def test_obs3_correlated_system_never_below_both(self, correlated_cells):
        # High correlation (run 1): above both.  Low correlation (run 4):
        # at least above the weaker release.
        assert reliability_ordering(correlated_cells[1]) == "above-both"
        assert reliability_ordering(correlated_cells[4]) in (
            "above-both", "between",
        )

    def test_obs4_independent_system_beats_both(self, independent_cell):
        assert reliability_ordering(independent_cell) == "above-both"


class TestBayesianFindings:
    def test_detection_error_bound_scenario1(self, scenario_histories):
        curves = curves_from_histories(
            "scenario-1", scenario_histories["scenario-1"]
        )
        holds, fraction = confidence_error_bound(
            curves.series["Ch B: 90% percentile (perfect)"],
            curves.series["Ch B: 99% percentile (omission)"],
        )
        # The paper reports the bound holding up to the switch point;
        # demand near-universality here.
        assert fraction >= 0.9

    def test_detection_error_bound_scenario2(self, scenario_histories):
        curves = curves_from_histories(
            "scenario-2", scenario_histories["scenario-2"]
        )
        holds, _fraction = confidence_error_bound(
            curves.series["Ch B: 90% percentile (perfect)"],
            curves.series["Ch B: 99% percentile (omission)"],
        )
        assert holds

    def test_scenario2_much_faster_than_scenario1(self, scenario_histories):
        sc1 = scenario_1()
        sc2 = scenario_2()
        crit1_sc1 = sc1.criteria()["criterion-1"]
        crit1_sc2 = sc2.criteria()["criterion-1"]
        d1 = evaluate_history(
            crit1_sc1, scenario_histories["scenario-1"]["perfect"]
        )
        d2 = evaluate_history(
            crit1_sc2, scenario_histories["scenario-2"]["perfect"]
        )
        assert d2.attainable
        # Scenario 2's targets sit far from the truth: *stable*
        # satisfaction comes much earlier than in Scenario 1 (whose
        # early hits oscillate; it may not even stabilise in this
        # reduced horizon).
        if d1.stable_from is not None:
            assert d2.stable_from * 5 <= d1.stable_from

    def test_optimistic_detection_never_slower_criterion2(
        self, scenario_histories
    ):
        # Back-to-back detection hides coincident failures — the most
        # optimistic regime — so Criterion 2 can only be satisfied
        # earlier (or equally), never later.
        criterion = scenario_2().criteria()["criterion-2"]
        histories = scenario_histories["scenario-2"]
        perfect = evaluate_history(criterion, histories["perfect"])
        b2b = evaluate_history(criterion, histories["back-to-back"])
        if perfect.attainable:
            assert b2b.attainable
            assert b2b.first_satisfied <= perfect.first_satisfied
