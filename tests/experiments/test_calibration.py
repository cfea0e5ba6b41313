"""Tests for the latency-calibration ablation."""

import pytest

from repro.experiments.calibration import (
    CALIBRATION_SPEC,
    PAPER_RELEASE_MET,
    candidate_profiles,
    evaluate_profile,
    render_calibration,
)
from repro.experiments.event_sim import calibrated_profile, paper_profile
from repro.pipeline import ExperimentOptions, run_experiment


def calibration_sweep(samples, seed):
    """The registered sweep at *samples* per candidate: (fits, best)."""
    options = ExperimentOptions(seed=seed, requests=samples)
    return run_experiment(CALIBRATION_SPEC, options).value


class TestEvaluateProfile:
    def test_paper_profile_mismatch_quantified(self):
        fit = evaluate_profile(paper_profile(), samples=20_000, seed=1)
        # The documented inconsistency: the stated exponentials give
        # MET ~1.4 s and ~37 % NRDT at 1.5 s — far from the reported
        # ~1.0 s / ~4.4 %.
        assert fit.release_met == pytest.approx(1.4, abs=0.05)
        assert fit.nrdt_rate[1.5] == pytest.approx(0.37, abs=0.03)
        assert fit.error() > 1.0

    def test_calibrated_profile_close_to_reported(self):
        fit = evaluate_profile(calibrated_profile(), samples=50_000, seed=1)
        assert fit.release_met == pytest.approx(PAPER_RELEASE_MET, abs=0.05)
        assert fit.nrdt_rate[1.5] == pytest.approx(0.0436, abs=0.015)
        assert fit.error() < 0.15

    def test_errors_ordered(self):
        paper_fit = evaluate_profile(paper_profile(), samples=20_000)
        calibrated_fit = evaluate_profile(
            calibrated_profile(), samples=20_000
        )
        assert calibrated_fit.error() < paper_fit.error()


class TestCalibrationSweep:
    def test_best_fit_beats_paper_profile(self):
        fits, best = calibration_sweep(samples=10_000, seed=1)
        by_name = {fit.profile_name: fit for fit in fits}
        assert best.error() <= by_name["paper"].error()
        assert len(fits) == len(candidate_profiles())

    def test_render(self):
        fits, _best = calibration_sweep(samples=5_000, seed=1)
        text = render_calibration(fits)
        assert "Release MET" in text and "paper" in text
