"""Tests for the event-driven Table 5/6 machinery (reduced sizes)."""

import math

import pytest

from repro.experiments import paper_params as P
from repro.experiments.event_sim import (
    SimulationTable,
    calibrated_profile,
    paper_profile,
    release_pair_cells,
    run_release_pair_simulation,
)
from repro.experiments.table5 import TABLE5_LABEL
from repro.experiments.table6 import TABLE6_LABEL
from repro.runtime.parallel import run_cells


def table5(requests, timeouts, runs):
    """A subset of the Table-5 grid on the event kernel."""
    cells = release_pair_cells(
        "table5", "correlated", seed=P.DEFAULT_SEED, requests=requests,
        timeouts=timeouts, runs=runs,
    )
    return SimulationTable(label=TABLE5_LABEL, results=run_cells(cells))


def table6(requests, timeouts, runs):
    """A subset of the Table-6 grid on the event kernel."""
    cells = release_pair_cells(
        "table6", "independent", seed=P.DEFAULT_SEED, requests=requests,
        timeouts=timeouts, runs=runs,
    )
    return SimulationTable(label=TABLE6_LABEL, results=run_cells(cells))


@pytest.fixture(scope="module")
def run1_metrics():
    return run_release_pair_simulation(
        joint_model=P.correlated_model(1),
        timeout=1.5,
        requests=2_000,
        seed=5,
    )


class TestSingleCell:
    def test_row_consistency(self, run1_metrics):
        run1_metrics.check_consistency()
        for row in (*run1_metrics.releases, run1_metrics.system):
            assert row.total_requests == 2_000

    def test_finding1_system_availability_highest(self, run1_metrics):
        # §5.2.3 observation 1: the 1-out-of-2 system is more available
        # than either release.
        system = run1_metrics.system.availability
        assert system >= run1_metrics.releases[0].availability
        assert system >= run1_metrics.releases[1].availability

    def test_finding2_system_met_highest(self, run1_metrics):
        # §5.2.3 observation 2: the system waits for the slower response
        # and adds dT.
        system = run1_metrics.system.mean_execution_time
        assert system > run1_metrics.releases[0].mean_execution_time
        assert system > run1_metrics.releases[1].mean_execution_time

    def test_system_met_bounded_by_timeout_plus_dt(self, run1_metrics):
        assert run1_metrics.system.mean_execution_time <= 1.5 + 0.1 + 1e-9


class TestTables:
    def test_table5_grid_complete(self):
        table = table5(requests=300, timeouts=(1.5,), runs=(1, 2))
        assert {r.run for r in table.results} == {1, 2}
        assert table.cell(1, 1.5).metrics.system.total_requests == 300

    def test_table6_independent_beats_both_on_correctness_rate(self):
        # §5.2.3 observation 4 (independence): system reliability beats
        # both releases.  Compare conditional-on-response correctness to
        # factor availability out.
        table = table6(requests=4_000, timeouts=(3.0,), runs=(3,))
        metrics = table.cell(3, 3.0).metrics

        def correct_rate(row):
            return row.counts.correct / row.counts.total

        assert correct_rate(metrics.system) >= correct_rate(
            metrics.releases[0]
        ) - 0.02
        assert correct_rate(metrics.system) >= correct_rate(
            metrics.releases[1]
        )

    def test_render_contains_paper_rows(self):
        table = table5(requests=200, timeouts=(1.5,), runs=(1,))
        text = table.render()
        for label in ("MET", "CR", "EER", "NER", "Total", "NRDT"):
            assert label in text

    def test_unknown_cell_raises(self):
        table = table5(requests=200, timeouts=(1.5,), runs=(1,))
        with pytest.raises(KeyError):
            table.cell(9, 1.5)


class TestProfiles:
    def test_paper_profile_means(self):
        profile = paper_profile()
        assert profile.demand_difficulty.mean == pytest.approx(0.7)
        assert all(
            latency.mean == pytest.approx(0.7)
            for latency in profile.release_latencies
        )

    def test_calibrated_profile_reduces_nrdt(self):
        paper = run_release_pair_simulation(
            P.correlated_model(1), timeout=1.5, requests=2_000, seed=5,
            profile=paper_profile(),
        )
        calibrated = run_release_pair_simulation(
            P.correlated_model(1), timeout=1.5, requests=2_000, seed=5,
            profile=calibrated_profile(),
        )
        assert (
            calibrated.releases[0].no_response
            < paper.releases[0].no_response
        )

    def test_calibrated_release_met_near_paper_value(self):
        metrics = run_release_pair_simulation(
            P.correlated_model(1), timeout=3.0, requests=4_000, seed=5,
            profile=calibrated_profile(),
        )
        met = metrics.releases[0].mean_execution_time
        assert met == pytest.approx(1.0077, abs=0.08)
