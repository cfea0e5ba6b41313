"""Tests for the Fig. 7/8 percentile-curve experiments (reduced sizes)."""

import pytest

from repro.bayes.priors import GridSpec
from repro.experiments.cli import main
from repro.experiments.percentile_curves import curves_from_histories
from repro.experiments.scenarios import (
    detection_models,
    scenario_1,
    scenario_2,
)
from repro.experiments.table2 import assessment_cells
from repro.runtime.parallel import run_cells


def curves(scenario, grid, total_demands, checkpoint_every):
    """One figure's curves at a reduced grid and horizon (seed 3)."""
    cells = assessment_cells(
        "figure", [scenario], seed=3, grid=grid,
        total_demands=total_demands, checkpoint_every=checkpoint_every,
    )
    histories = dict(zip(detection_models(), run_cells(cells)))
    return curves_from_histories(scenario.name, histories)


@pytest.fixture(scope="module")
def fig8_small():
    return curves(
        scenario_2(), GridSpec(64, 64, 24), total_demands=4_000,
        checkpoint_every=500,
    )


class TestCurveBundle:
    def test_all_paper_curves_present(self, fig8_small):
        assert set(fig8_small.series) == set(fig8_small.PAPER_CURVES)

    def test_axes_aligned(self, fig8_small):
        n = len(fig8_small.demands)
        for series in fig8_small.series.values():
            assert len(series) == n

    def test_90_below_99_same_detection(self, fig8_small):
        p90 = fig8_small.series["Ch B: 90% percentile (perfect)"]
        p99 = fig8_small.series["Ch B: 99% percentile (perfect)"]
        assert all(a <= b for a, b in zip(p90, p99))

    def test_percentiles_shrink_with_evidence(self, fig8_small):
        # Truth PB = 0.5e-3, far below the prior mean 4e-3: the bound
        # must come down substantially over the run.
        p99 = fig8_small.series["Ch B: 99% percentile (perfect)"]
        assert p99[-1] < p99[0]

    def test_detection_error_bound_holds(self, fig8_small):
        # The §5.1.1.4 claim at these sizes.
        assert fig8_small.detection_confidence_error_ok()

    def test_render_table(self, fig8_small):
        text = fig8_small.render(stride=2)
        assert "Demands" in text
        assert "Ch A: 99% percentile (perfect)" in text


class TestFig7Small:
    def test_runs_and_has_curves(self):
        fig7 = curves(
            scenario_1(), GridSpec(48, 48, 16), total_demands=4_000,
            checkpoint_every=1_000,
        )
        assert fig7.scenario == "scenario-1"
        assert len(fig7.demands) == 4


class TestTooFewCheckpoints:
    """A figure needs two checkpoints: one per ``checkpoint_every``
    demands (2,000 for Fig. 7, 500 for Fig. 8) plus the last demand."""

    @pytest.mark.parametrize("argv, smallest", [
        (["fig7", "--requests", "2000"], 2_001),
        (["fig8", "--requests", "500"], 501),
        (["all", "--requests", "300"], 2_001),
        (["report", "--requests", "300"], 2_001),
    ])
    def test_one_checkpoint_is_refused_before_any_cell_runs(
        self, argv, smallest, tmp_path, capsys
    ):
        cache = tmp_path / "cache"
        cache.mkdir()
        with pytest.raises(SystemExit) as info:
            main(argv + ["--fast", "--seed", "1", "--cache-dir", str(cache)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"requests must be at least {smallest}" in captured.err
        assert "Traceback" not in captured.err
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("name, every", [("fig7", 2_000), ("fig8", 500)])
    def test_two_checkpoints_render(self, name, every, tmp_path, capsys):
        assert main([
            name, "--fast", "--seed", "1", "--requests", str(every + 1),
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        # The curve table's rows, then the plot and the bound check.
        rows = [line.split()[0] for line in lines if line[:1].isdigit()]
        assert rows[:2] == [str(every), str(every + 1)]
        assert "99%-omission everywhere" in lines[-2]
