"""Benchmark: regenerate Table 5 (correlated releases, event-driven sim).

Reduced to 2,500 requests per cell (paper: 10,000; full size via
``repro-experiments table5``).  Prints the paper-layout blocks and checks
the §5.2.3 qualitative observations.
"""

import pytest

from repro.analysis.stats import reliability_ordering
from repro.experiments.table5 import TABLE5_SPEC
from repro.pipeline import ExperimentOptions, run_experiment

BENCH_REQUESTS = 2_500

#: Calibrated profile: the paper's availability regime (~96%), where
#: its qualitative observations are stated.  Event kernel.
OPTIONS = ExperimentOptions(
    seed=3, requests=BENCH_REQUESTS, profile="calibrated", backend="event"
)


@pytest.fixture(scope="module")
def table5():
    return run_experiment(TABLE5_SPEC, OPTIONS).value


def test_table5_benchmark(benchmark):
    table = benchmark.pedantic(
        lambda: run_experiment(TABLE5_SPEC, OPTIONS).value,
        rounds=1,
        iterations=1,
    )
    print()
    print(table.render())


def test_obs1_availability(table5):
    for result in table5.results:
        metrics = result.metrics
        assert metrics.system.availability >= max(
            metrics.releases[0].availability,
            metrics.releases[1].availability,
        ) - 1e-9


def test_obs2_met(table5):
    for result in table5.results:
        metrics = result.metrics
        assert metrics.system.mean_execution_time > max(
            metrics.releases[0].mean_execution_time,
            metrics.releases[1].mean_execution_time,
        )


def test_obs3_system_never_below_both(table5):
    for result in table5.results:
        assert reliability_ordering(result.metrics) in (
            "above-both", "between",
        )
