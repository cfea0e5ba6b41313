"""Tests for the 1-out-of-N extension experiment (reduced sizes)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.multi_release import (
    MultiReleaseSweep,
    chained_model,
    run_n_release_simulation,
    sweep_cells,
)
from repro.runtime.parallel import run_cells


def sweep_over(release_counts, requests, backend="event"):
    """A 1-out-of-N sweep over *release_counts* (seed 3)."""
    cells = sweep_cells(
        release_counts, requests=requests, seed=3, backend=backend
    )
    return MultiReleaseSweep(list(release_counts), run_cells(cells))


@pytest.fixture(scope="module")
def sweep():
    return sweep_over((1, 2, 3), requests=1_200)


class TestSweep:
    def test_all_counts_present(self, sweep):
        assert sweep.release_counts == [1, 2, 3]
        for n, metrics in zip(sweep.release_counts, sweep.metrics):
            assert len(metrics.releases) == n
            metrics.check_consistency()

    def test_availability_monotone_in_releases(self, sweep):
        availabilities = [m.system.availability for m in sweep.metrics]
        for fewer, more in zip(availabilities, availabilities[1:]):
            assert more >= fewer - 0.01

    def test_met_grows_with_releases(self, sweep):
        mets = [m.system.mean_execution_time for m in sweep.metrics]
        for fewer, more in zip(mets, mets[1:]):
            assert more >= fewer

    def test_render(self, sweep):
        text = sweep.render()
        assert "1-out-of-N" in text


class TestSingleRun:
    def test_rejects_zero_releases(self):
        with pytest.raises(ConfigurationError):
            run_n_release_simulation(0, requests=10)

    def test_single_release_has_no_forcing(self):
        metrics = run_n_release_simulation(1, requests=300, seed=5)
        assert len(metrics.releases) == 1
        assert metrics.system.total_requests == 300

    def test_chained_model_marginals(self):
        model = chained_model(1)
        assert model.marginal_first().p_correct == pytest.approx(0.70)


class TestBackendPlumbing:
    """Backend selection at the sweep level (bit-identity itself is
    asserted row-by-row in tests/runtime/test_columnar.py)."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            run_n_release_simulation(2, requests=10, backend="batch")

    def test_sweep_carries_backend_in_cache_keys(self):
        cells = sweep_cells((1, 2), requests=100, backend="columnar")
        assert all(
            cell.key["backend"] == "columnar" for cell in cells
        )
        assert all(
            cell.kwargs["backend"] == "columnar" for cell in cells
        )

    def test_columnar_sweep_matches_event_sweep(self):
        event = sweep_over((1, 3), requests=200, backend="event")
        columnar = sweep_over((1, 3), requests=200, backend="columnar")
        for left, right in zip(event.metrics, columnar.metrics):
            assert left.all_rows() == right.all_rows()
