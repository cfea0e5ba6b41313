"""Benchmark: regenerate Table 6 (independent releases, event-driven sim).

Reduced to 2,500 requests per cell; full size via
``repro-experiments table6``.  Checks the §5.2.3 observation 4:
"fault-tolerance works" under independence.
"""

import pytest

from repro.experiments.table6 import TABLE6_SPEC
from repro.pipeline import ExperimentOptions, run_experiment

BENCH_REQUESTS = 2_500

#: The calibrated latency profile reproduces the paper's availability
#: regime (~96%); the §5.2.3 conditional-correctness claims are
#: statements about that regime.  Event kernel.
OPTIONS = ExperimentOptions(
    seed=3, requests=BENCH_REQUESTS, profile="calibrated", backend="event"
)


@pytest.fixture(scope="module")
def table6():
    return run_experiment(TABLE6_SPEC, OPTIONS).value


def test_table6_benchmark(benchmark):
    table = benchmark.pedantic(
        lambda: run_experiment(TABLE6_SPEC, OPTIONS).value,
        rounds=1,
        iterations=1,
    )
    print()
    print(table.render())


def test_obs4_correct_rate_beats_both_releases(table6):
    # Conditional-on-response correctness (availability factored out).
    for result in table6.results:
        metrics = result.metrics

        def correct_rate(row):
            return row.counts.correct / max(row.counts.total, 1)

        assert correct_rate(metrics.system) >= correct_rate(
            metrics.releases[1]
        ) - 1e-9
        assert correct_rate(metrics.system) >= correct_rate(
            metrics.releases[0]
        ) - 0.03  # sampling slack at 2,500 requests


def test_system_availability_beats_both(table6):
    for result in table6.results:
        metrics = result.metrics
        assert metrics.system.availability >= max(
            metrics.releases[0].availability,
            metrics.releases[1].availability,
        ) - 1e-9
