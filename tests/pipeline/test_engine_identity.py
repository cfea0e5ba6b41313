"""Engine guarantees, uniformly for every registered grid experiment.

The unified engine promises every spec the same three properties the
individual experiments used to assert ad hoc:

* ``jobs=N`` renders bit-identically to ``jobs=1``;
* a cached replay renders bit-identically to an uncached run;
* the second cached run actually replays from the cache.

Sizes are shrunk via the uniform ``requests`` override, so these run at
smoke scale.
"""

import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.bayes.whitebox import WhiteBoxAssessor
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    ExperimentOptions,
    discover,
    registered_specs,
    run_experiment,
)
from repro.runtime.cache import ResultCache

discover()

#: Per-spec workload override keeping each grid at smoke scale (the
#: key is each spec's own workload knob: requests, samples or demands).
SMOKE_REQUESTS = {
    "table2": 2_000,
    "fig7": 4_000,
    "fig8": 1_000,
    "robustness": 2_000,
    "calibrate": 2_000,
    "table5": 300,
    "table6": 300,
    "fidelity": 200,
    "multirelease": 300,
    "service_load": 300,
}

GRID_SPECS = sorted(
    name for name, spec in registered_specs().items()
    if not spec.is_composite
)


def _count_evaluations(monkeypatch):
    """Count posterior evaluations from here on, pool workers' included.

    An assessment grid evaluates each distinct count vector of its
    cells once; these counts show that each run of a grid computes its
    posteriors itself, as many as at ``jobs=1``.
    """
    calls = multiprocessing.get_context("fork").Value("l", 0)
    original = WhiteBoxAssessor.checkpoint_summary

    def counted(self, *args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WhiteBoxAssessor, "checkpoint_summary", counted)
    return calls


def _options(name: str, **overrides) -> ExperimentOptions:
    base = ExperimentOptions(
        seed=1, fast=True, requests=SMOKE_REQUESTS.get(name, 300)
    )
    return replace(base, **overrides)


class TestEveryGridSpec:
    def test_all_grid_specs_covered_by_smoke_sizes(self):
        assert set(GRID_SPECS) <= set(SMOKE_REQUESTS)

    @pytest.mark.parametrize("name", GRID_SPECS)
    def test_jobs_bit_identical(self, name, monkeypatch):
        # Two CPUs as far as the runtime can tell, so jobs=2 runs the
        # per-cell cells through the process pool even on a 1-CPU host.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        evaluations = _count_evaluations(monkeypatch)
        spec = registered_specs()[name]
        sequential = run_experiment(spec, _options(name, jobs=1))
        inline = evaluations.value
        registry = MetricsRegistry()
        parallel = run_experiment(
            spec, _options(name, jobs=2, metrics=registry)
        )
        assert sequential.text == parallel.text
        # An assessment grid evaluates each distinct count vector once,
        # whichever worker evaluates it.
        assert evaluations.value - inline == inline
        assert sequential.cells == parallel.cells > 0
        snapshot = registry.as_dict()
        if snapshot["counters"].get("pool.cells_executed"):
            # Cells that took the per-cell path really ran in the pool.
            assert snapshot["gauges"]["pool.jobs"] == 2.0

    @pytest.mark.parametrize("name", GRID_SPECS)
    def test_cached_replay_equals_uncached(self, name, tmp_path, monkeypatch):
        evaluations = _count_evaluations(monkeypatch)
        spec = registered_specs()[name]
        uncached = run_experiment(spec, _options(name))
        computed = evaluations.value
        cache = ResultCache(tmp_path / "cache")
        first = run_experiment(spec, _options(name, cache=cache))
        assert evaluations.value == 2 * computed
        assert cache.entry_count() == first.cells > 0
        replay = run_experiment(spec, _options(name, cache=cache))
        assert first.text == uncached.text
        assert replay.text == uncached.text
