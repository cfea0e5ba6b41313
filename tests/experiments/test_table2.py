"""Integration-grade tests for the Table 2 experiment (reduced sizes)."""

import pytest

from repro.bayes.priors import GridSpec
from repro.experiments.scenarios import (
    detection_models,
    scenario_1,
    scenario_2,
)
from repro.experiments.table2 import assessment_cells, table2_from_histories
from repro.runtime.parallel import run_cells


def run_histories(scenarios, grid, total_demands, checkpoint_every, seed):
    """Assessment histories of *scenarios*, in grid order."""
    return run_cells(assessment_cells(
        "table2", scenarios, seed=seed, grid=grid,
        total_demands=total_demands, checkpoint_every=checkpoint_every,
    ))


def scenario_histories(scenario, seed):
    """One scenario's histories, keyed by detection regime."""
    histories = run_histories(
        [scenario], GridSpec(48, 48, 16), total_demands=2_000,
        checkpoint_every=2_000, seed=seed,
    )
    return dict(zip(detection_models(), histories))


@pytest.fixture(scope="module")
def small_result():
    scenarios = [scenario_1(), scenario_2()]
    histories = run_histories(
        scenarios, GridSpec(64, 64, 24), total_demands=4_000,
        checkpoint_every=1_000, seed=3,
    )
    return table2_from_histories(scenarios, histories)


class TestTable2Result:
    def test_all_cells_present(self, small_result):
        assert len(small_result.cells) == 2 * 3 * 3
        cell = small_result.cell("scenario-1", "perfect", "criterion-2")
        assert cell.horizon == 4_000

    def test_unknown_cell_raises(self, small_result):
        with pytest.raises(KeyError):
            small_result.cell("scenario-9", "perfect", "criterion-1")

    def test_histories_keyed_by_scenario_and_detection(self, small_result):
        assert ("scenario-1", "perfect") in small_result.histories
        assert ("scenario-2", "back-to-back") in small_result.histories

    def test_render_contains_all_rows(self, small_result):
        text = small_result.render()
        assert "scenario-1" in text and "scenario-2" in text
        assert "Criterion 1" in text

    def test_scenario2_criteria_1_and_3_attained_quickly(self, small_result):
        # With truth PB = 0.5e-3 far below the scenario-2 targets, a few
        # thousand demands suffice (paper: 1,400 and 1,100).
        for criterion in ("criterion-1", "criterion-3"):
            cell = small_result.cell("scenario-2", "perfect", criterion)
            assert cell.decision.attainable


class TestSameStreamAcrossDetections:
    def test_true_failure_stream_shared(self):
        histories = scenario_histories(scenario_1(), seed=11)
        perfect = histories["perfect"].final().counts
        omission = histories["omission"].final().counts
        # Omission can only hide failures, never add them.
        assert omission.first_failures <= perfect.first_failures
        assert omission.second_failures <= perfect.second_failures

    def test_back_to_back_hides_exactly_coincident(self):
        histories = scenario_histories(scenario_2(), seed=11)
        perfect = histories["perfect"].final().counts
        b2b = histories["back-to-back"].final().counts
        assert b2b.both_fail == 0
        assert b2b.only_first_fails == perfect.only_first_fails
