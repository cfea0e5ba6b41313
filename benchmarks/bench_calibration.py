"""Ablation: paper-stated vs calibrated latency profiles.

Quantifies the documented §5.2.2 inconsistency (DESIGN.md): the stated
exponential parameters produce per-release MET/NRDT far from the values
the paper's Tables 5-6 report, while the calibrated log-normal+hangs
profile reproduces them.  Prints the calibration sweep.
"""

from repro.experiments.calibration import (
    CALIBRATION_SPEC,
    PAPER_RELEASE_MET,
    PAPER_RELEASE_NRDT_RATE,
    evaluate_profile,
    render_calibration,
)
from repro.experiments.event_sim import calibrated_profile, paper_profile
from repro.pipeline import ExperimentOptions, run_experiment


def test_calibration_benchmark(benchmark):
    options = ExperimentOptions(seed=7, requests=50_000)
    fits, best = benchmark.pedantic(
        lambda: run_experiment(CALIBRATION_SPEC, options).value,
        rounds=1, iterations=1,
    )
    print()
    print(render_calibration(fits))
    print(f"\nBest fit: {best.profile_name} (error {best.error():.4f})")
    by_name = {fit.profile_name: fit for fit in fits}
    assert best.error() <= by_name["calibrated"].error() + 1e-9


def test_paper_profile_off_calibrated_close():
    paper_fit = evaluate_profile(paper_profile(), samples=50_000, seed=7)
    calibrated_fit = evaluate_profile(
        calibrated_profile(), samples=50_000, seed=7
    )
    # Paper-stated exponentials: ~40% relative MET error, ~8x NRDT.
    assert abs(paper_fit.release_met - PAPER_RELEASE_MET) > 0.3
    assert paper_fit.nrdt_rate[1.5] > 5 * PAPER_RELEASE_NRDT_RATE[1.5]
    # Calibrated: within a few percent on both.
    assert abs(calibrated_fit.release_met - PAPER_RELEASE_MET) < 0.05
    assert abs(
        calibrated_fit.nrdt_rate[1.5] - PAPER_RELEASE_NRDT_RATE[1.5]
    ) < 0.01
