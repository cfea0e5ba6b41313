"""Ablation: 1-out-of-N with several operational releases (extension).

The paper's §4.1 architecture supports "several releases" but evaluates
two.  This bench sweeps N = 1..4 chained-correlated releases and prints
what each extra release buys (availability) and costs (system MET,
server capacity), including the non-obvious finding that the *third*
release can hurt correctness: chaining the Table-4 conditional diffuses
each successive release's outcome marginal toward uniform, so releases
far down the chain are weaker channels.
"""

import pytest

from repro.experiments.multi_release import MULTI_RELEASE_SPEC
from repro.pipeline import ExperimentOptions, run_experiment

BENCH_REQUESTS = 1_500

#: The spec's N = 1..4 sweep on the event kernel.
OPTIONS = ExperimentOptions(seed=3, requests=BENCH_REQUESTS, backend="event")


@pytest.fixture(scope="module")
def sweep():
    return run_experiment(MULTI_RELEASE_SPEC, OPTIONS).value


def test_multi_release_benchmark(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(MULTI_RELEASE_SPEC, OPTIONS).value,
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())


def test_availability_improves_with_releases(sweep):
    availabilities = [m.system.availability for m in sweep.metrics]
    assert availabilities[-1] >= availabilities[0]


def test_met_price_of_waiting_for_n(sweep):
    mets = [m.system.mean_execution_time for m in sweep.metrics]
    for fewer, more in zip(mets, mets[1:]):
        assert more >= fewer


def test_capacity_grows_linearly(sweep):
    consumed = [
        sum(r.counts.total for r in m.releases) for m in sweep.metrics
    ]
    for fewer, more in zip(consumed, consumed[1:]):
        assert more > fewer
