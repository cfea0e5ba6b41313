"""Benchmark: regenerate Table 2 (duration of managed upgrade).

Reduced to the ``--fast`` sizes (10,000 demands, checkpoints every
1,000, 96x96x32 grid) for benchmarking; the full-size run is
``repro-experiments table2``.  Prints the paper-layout table once.
"""

import pytest

from repro.experiments.table2 import TABLE2_SPEC
from repro.pipeline import ExperimentOptions, run_experiment

OPTIONS = ExperimentOptions(seed=3, fast=True)


@pytest.fixture(scope="module")
def table2_result():
    return run_experiment(TABLE2_SPEC, OPTIONS).value


def test_table2_benchmark(benchmark):
    result = benchmark.pedantic(
        lambda: run_experiment(TABLE2_SPEC, OPTIONS).value,
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())


def test_table2_shape_checks(table2_result):
    """The qualitative Table-2 claims at benchmark size."""
    # Scenario 2 attains criteria 1 and 3 quickly under every regime.
    for detection in ("perfect", "omission", "back-to-back"):
        for criterion in ("criterion-1", "criterion-3"):
            cell = table2_result.cell("scenario-2", detection, criterion)
            assert cell.decision.attainable
            assert cell.decision.first_satisfied <= 5_000
