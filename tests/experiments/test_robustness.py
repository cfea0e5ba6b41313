"""Tests for the multi-seed robustness sweep (reduced sizes)."""

import pytest

from repro.bayes.priors import GridSpec
from repro.experiments.robustness import (
    CellRobustness,
    report_from_histories,
    robustness_cells,
)
from repro.runtime.parallel import run_cells


@pytest.fixture(scope="module")
def report():
    seeds = (1, 2)
    cells = robustness_cells(
        seeds,
        grid=GridSpec(48, 48, 16),
        total_demands=4_000,
        checkpoint_every=1_000,
    )
    return report_from_histories(seeds, run_cells(cells))


class TestReport:
    def test_all_cells_covered(self, report):
        assert len(report.cells) == 2 * 3 * 3
        cell = report.cell("scenario-2", "perfect", "criterion-1")
        assert len(cell.first_satisfied) == 2

    def test_scenario2_attainable_on_every_stream(self, report):
        for criterion in ("criterion-1", "criterion-3"):
            cell = report.cell("scenario-2", "perfect", criterion)
            assert cell.attainability == 1.0
            low, median, high = cell.summary()
            assert low <= median <= high

    def test_render(self, report):
        text = report.render()
        assert "Attained" in text and "Median" in text


class TestCellSummary:
    def test_summary_with_unattained_streams(self):
        cell = CellRobustness("s", "d", "c",
                              first_satisfied=[1000, None, 3000])
        assert cell.attainability == pytest.approx(2 / 3)
        assert cell.summary() == (1000, 2000, 3000)

    def test_summary_all_unattained(self):
        cell = CellRobustness("s", "d", "c", first_satisfied=[None, None])
        assert cell.summary() == (None, None, None)
        assert cell.attainability == 0.0

    def test_empty_cell_nan(self):
        import math

        assert math.isnan(CellRobustness("s", "d", "c").attainability)
