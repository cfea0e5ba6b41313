"""Async load runs cross-checked against the event-kernel simulation.

One cell per operating mode at small scale; each must land inside the
tolerance envelope documented in
:mod:`repro.experiments.service_load` — and the non-tie figures must in
fact be *exact*, which is a stronger property than ``ok`` asserts.
"""

import re

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.service_load import (
    MODE_NAMES,
    _tie_capable,
    mode_config,
    run_service_load_cell,
    service_load_cells,
)
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import ExperimentOptions, get_spec, run_experiment

REQUESTS = 800


@pytest.mark.parametrize("mode", list(MODE_NAMES) + ["dynamic-2"])
def test_mode_cross_check_within_envelope(mode):
    result = run_service_load_cell(
        joint="correlated",
        run=2,
        timeout=2.0,
        requests=REQUESTS,
        seed=7,
        mode=mode,
        concurrency=16,
        queue_capacity=32,
    )
    assert result.ok, result.mismatches

    # Per-release rows are exact in every mode; the System row is exact
    # except the CR/NER split in tie-capable modes (whose sum is exact).
    for row_name, sim_row in result.sim_rows.items():
        load_row = result.load_rows[row_name]
        tie_split = _tie_capable(mode) and row_name == "System"
        for column, sim_value in sim_row.items():
            if column == "MET" or isinstance(sim_value, float):
                continue  # float figures covered by the envelope check
            if tie_split and column in ("CR", "NER"):
                continue
            assert load_row[column] == sim_value, (
                f"{mode} {row_name}.{column}"
            )
        if tie_split:
            assert (
                load_row["CR"] + load_row["NER"]
                == sim_row["CR"] + sim_row["NER"]
            )


def test_throughput_figures_are_recorded():
    result = run_service_load_cell(
        joint="independent",
        run=1,
        timeout=2.0,
        requests=200,
        seed=3,
        mode="responsiveness",
    )
    assert result.ok, result.mismatches
    assert result.wall_seconds > 0.0
    assert result.throughput > 0.0
    assert result.peak_reorder_buffer >= 1


@pytest.mark.parametrize(
    "name", ["dynamic-x", "dynamic-", "dynamic-0", "dynamic", "bogus"]
)
def test_malformed_mode_name_is_a_configuration_error(name):
    for parse in (mode_config, _tie_capable):
        with pytest.raises(ConfigurationError, match=re.escape(repr(name))):
            parse(name)


def test_grid_counts_its_reference_cells_under_the_backend_counters():
    # The reference simulation of every cell reaches the registry, so a
    # zero fallback budget can catch a service_load cell leaving the
    # columnar envelope.
    registry = MetricsRegistry()
    outcome = run_experiment(get_spec("service_load"), ExperimentOptions(
        seed=1, fast=True, requests=300, metrics=registry,
    ))
    counters = registry.as_dict()["counters"]
    assert outcome.cells == 4
    assert counters["backend.columnar_cells"] == 4
    assert "backend.fallback_cells" not in counters


def test_registry_reaches_inline_cells_and_never_their_keys():
    plain = service_load_cells(seed=1, requests=300)
    registry = MetricsRegistry()
    inline = service_load_cells(seed=1, requests=300, metrics=registry)
    pooled = service_load_cells(
        seed=1, requests=300, metrics=registry, jobs=2
    )
    schema = set(get_spec("service_load").cache_schema)
    assert [cell.key for cell in inline] == [cell.key for cell in plain]
    assert [cell.key for cell in pooled] == [cell.key for cell in plain]
    assert all(set(cell.key) == schema for cell in plain)
    assert all(cell.kwargs["metrics"] is registry for cell in inline)
    assert all(cell.kwargs["metrics"] is None for cell in pooled)
