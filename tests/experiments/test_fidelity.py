"""Tests for the paper transcription and the fidelity diff machinery."""

import pytest

from repro.experiments.event_sim import (
    SimulationTable,
    calibrated_profile,
    release_pair_cells,
)
from repro.experiments.fidelity import FidelityDiff, compare_to_paper
from repro.experiments.paper_reported import TABLE2, TABLE5, TABLE6
from repro.runtime.parallel import run_cells


def calibrated_run1_cell(requests):
    """Table 5's run-1, TimeOut-1.5 cell under the calibrated profile."""
    cells = release_pair_cells(
        "table5", "correlated", seed=3, requests=requests, runs=(1,),
        timeouts=(1.5,), profile=calibrated_profile(),
    )
    return SimulationTable(label="Table 5", results=run_cells(cells))


class TestTranscriptionConsistency:
    @pytest.mark.parametrize("table", [TABLE5, TABLE6], ids=["t5", "t6"])
    def test_totals_close(self, table):
        # Data-entry check: Total + NRDT == 10,000 and
        # CR + EER + NER == Total for every transcribed cell.
        for run, cells in table.items():
            for timeout, cell in cells.items():
                for column, row in cell.items():
                    assert row["Total"] + row["NRDT"] == 10_000, (
                        run, timeout, column,
                    )
                    assert (
                        row["CR"] + row["EER"] + row["NER"]
                        == row["Total"]
                    ), (run, timeout, column)

    def test_grid_complete(self):
        for table in (TABLE5, TABLE6):
            assert set(table) == {1, 2, 3, 4}
            for cells in table.values():
                assert set(cells) == {1.5, 2.0, 3.0}

    def test_table2_complete(self):
        assert len(TABLE2) == 18
        assert TABLE2[("scenario-1", "perfect", "criterion-2")] == (
            None, None,
        )

    def test_availability_increases_with_timeout(self):
        # Within each run, the paper's Total must grow with TimeOut.
        for table in (TABLE5, TABLE6):
            for run, cells in table.items():
                for column in ("Rel1", "Rel2", "System"):
                    totals = [cells[t][column]["Total"]
                              for t in (1.5, 2.0, 3.0)]
                    assert totals == sorted(totals), (run, column)


class TestFidelityDiff:
    def test_add_and_summaries(self):
        diff = FidelityDiff("x")
        diff.add("CR", 100, 110)
        diff.add("CR", 100, 100)
        assert diff.mean_error("CR") == pytest.approx(0.0455, abs=1e-3)
        assert diff.max_error("CR") == pytest.approx(1 / 11, abs=1e-3)

    def test_zero_reported_skipped(self):
        diff = FidelityDiff("x")
        diff.add("CR", 5, 0)
        assert diff.errors.get("CR") is None

    def test_missing_observable_nan(self):
        import math

        diff = FidelityDiff("x")
        assert math.isnan(diff.mean_error("MET"))
        assert math.isnan(diff.overall_mean())

    def test_compare_scales_reduced_runs(self):
        # A 2,000-request regeneration diffs against the 10,000-request
        # paper cells after scaling — counts land in the right range.
        table = calibrated_run1_cell(requests=2_000)
        diff = compare_to_paper(table, TABLE5, "scaled")
        assert diff.mean_error("Total") < 0.02
        assert diff.mean_error("CR") < 0.10

    def test_render(self):
        table = calibrated_run1_cell(requests=500)
        diff = compare_to_paper(table, TABLE5, "render-check")
        text = diff.render()
        assert "Fidelity vs paper" in text and "overall" in text
