"""Benchmark: regenerate Fig. 7 (Scenario 1 percentile curves).

Reduced horizon (16,000 demands) on the ``--fast`` 96x96x32 grid; the
full-size run is ``repro-experiments fig7``.  Prints the five paper
curves as a table.
"""

from repro.experiments.percentile_curves import FIG7_SPEC
from repro.pipeline import ExperimentOptions, run_experiment

OPTIONS = ExperimentOptions(seed=3, fast=True, requests=16_000)


def test_fig7_benchmark(benchmark):
    curves = benchmark.pedantic(
        lambda: run_experiment(FIG7_SPEC, OPTIONS).value,
        rounds=1,
        iterations=1,
    )
    print()
    print(curves.render())
    print(
        "90%-perfect <= 99%-omission everywhere: "
        f"{curves.detection_confidence_error_ok()}"
    )
    # All five paper curves present, aligned, and the percentiles of B
    # under perfect detection shrink as evidence accumulates.
    assert set(curves.series) == set(curves.PAPER_CURVES)
    perfect_99 = curves.series["Ch B: 99% percentile (perfect)"]
    assert perfect_99[-1] <= perfect_99[0]
