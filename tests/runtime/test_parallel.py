"""Tests for the process-pool cell executor."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import CellSpec, resolve_jobs, run_cells


def _square(x):
    return x * x


def _draw(seed):
    return float(np.random.default_rng(seed).random())


def _touch_and_square(x, marker_dir):
    # Leaves a per-call marker so tests can count actual executions even
    # when cells run in worker processes.
    import os
    import tempfile

    fd, _ = tempfile.mkstemp(dir=marker_dir, suffix=".ran")
    os.close(fd)
    return x * x


def _cells(values, marker_dir=None):
    specs = []
    for value in values:
        kwargs = {"x": value}
        fn = _square
        if marker_dir is not None:
            kwargs["marker_dir"] = str(marker_dir)
            fn = _touch_and_square
        specs.append(
            CellSpec(
                experiment="unit",
                fn=fn,
                kwargs=kwargs,
                key={"x": value},
            )
        )
    return specs


class TestCellSpecGuard:
    def test_generator_kwarg_rejected_at_construction(self):
        # The runtime twin of lint rule REPRO202: a live Generator in
        # cell kwargs would make results depend on prior draws and on
        # which process runs the cell.
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="REPRO202"):
            CellSpec(
                experiment="unit",
                fn=_draw,
                kwargs={"seed": np.random.default_rng(3)},
                key={"seed": 3},
            )

    def test_integer_seed_kwarg_accepted(self):
        spec = CellSpec(
            experiment="unit", fn=_draw, kwargs={"seed": 3}, key={"seed": 3}
        )
        assert spec.kwargs == {"seed": 3}


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cpus(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)


class TestRunCells:
    def test_inline_preserves_order(self):
        assert run_cells(_cells([3, 1, 2])) == [9, 1, 4]

    def test_pool_preserves_order(self):
        assert run_cells(_cells(list(range(8))), jobs=4) == [
            x * x for x in range(8)
        ]

    def test_empty_cell_list(self):
        assert run_cells([], jobs=4) == []

    def test_parallel_results_bit_identical_to_inline(self):
        cells = [
            CellSpec("unit", _draw, {"seed": seed}) for seed in range(10)
        ]
        assert run_cells(cells, jobs=1) == run_cells(cells, jobs=4)

    def test_cache_hits_skip_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        markers = tmp_path / "markers"
        markers.mkdir()
        cells = _cells([1, 2, 3], marker_dir=markers)
        first = run_cells(cells, jobs=1, cache=cache)
        assert first == [1, 4, 9]
        assert len(list(markers.iterdir())) == 3
        second = run_cells(cells, jobs=1, cache=cache)
        assert second == first
        # No new markers: every cell replayed from the cache.
        assert len(list(markers.iterdir())) == 3

    def test_cache_written_from_pool_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_cells(_cells([1, 2, 3, 4]), jobs=2, cache=cache)
        assert cache.entry_count() == 4
        # A sequential rerun sees all hits.
        markers = tmp_path / "markers"
        markers.mkdir()
        rerun = run_cells(
            _cells([1, 2, 3, 4], marker_dir=markers), jobs=1, cache=cache
        )
        assert rerun == [1, 4, 9, 16]
        assert list(markers.iterdir()) == []

    def test_unkeyed_cells_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = [CellSpec("unit", _square, {"x": 5})]  # key=None
        assert run_cells(cells, cache=cache) == [25]
        assert cache.entry_count() == 0


class TestPoolJobsGauge:
    """``pool.jobs`` reports the workers the executor *used*.

    Regression: the gauge used to echo the requested ``jobs`` value, so
    a ``jobs=4`` request over 2 cells — or an inline run called with
    ``jobs=4`` plumbing — reported 4.0 workers that never existed.
    """

    def _gauge(self, cells, jobs, inline_threshold=None):
        registry = MetricsRegistry()
        run_cells(
            cells, jobs=jobs, metrics=registry,
            inline_threshold=inline_threshold,
        )
        return registry.as_dict()["gauges"]["pool.jobs"]

    def test_inline_run_reports_one_worker(self):
        assert self._gauge(_cells([1, 2, 3]), jobs=1) == 1.0

    def test_single_cell_with_many_jobs_reports_one_worker(self):
        # One cell short-circuits to the inline path whatever jobs says.
        assert self._gauge(_cells([7]), jobs=4) == 1.0

    def test_pool_capped_by_cell_count(self):
        # threshold 0.0 forces the pool path; the probe cell runs inline,
        # the remaining two fan out.
        assert self._gauge(_cells([1, 2, 3]), jobs=4,
                           inline_threshold=0.0) == 2.0

    def test_pool_capped_by_jobs(self):
        assert self._gauge(_cells([1, 2, 3, 4, 5, 6]), jobs=2,
                           inline_threshold=0.0) == 2.0


class TestInlineProbe:
    """Cheap batches skip the pool: the probe cell's cost decides.

    Regression: BENCH grid scaling dropped below 1 because columnar
    cells (~ms each) were dispatched through fork + pickle (~tens of ms
    each) whenever ``jobs > 1``.
    """

    def _run(self, cells, jobs, inline_threshold=None):
        registry = MetricsRegistry()
        results = run_cells(
            cells, jobs=jobs, metrics=registry,
            inline_threshold=inline_threshold,
        )
        return results, registry.as_dict()

    def test_cheap_cells_run_inline_and_are_counted(self):
        results, snapshot = self._run(_cells([1, 2, 3, 4]), jobs=4)
        assert results == [1, 4, 9, 16]
        assert snapshot["counters"]["pool.inline_cells"] == 4
        assert snapshot["gauges"]["pool.jobs"] == 1.0

    def test_forced_pool_reports_no_inline_cells(self):
        results, snapshot = self._run(
            _cells([1, 2, 3, 4]), jobs=2, inline_threshold=0.0
        )
        assert results == [1, 4, 9, 16]
        assert "pool.inline_cells" not in snapshot["counters"]

    def test_inline_diversion_matches_pool_results(self):
        cells = [
            CellSpec("unit", _draw, {"seed": seed}) for seed in range(6)
        ]
        inline = run_cells(cells, jobs=4)  # probe diverts inline
        pooled = run_cells(cells, jobs=4, inline_threshold=0.0)
        assert inline == pooled


class TestPoolTimingsClock:
    """Pool timings are immune to wall-clock steps.

    Regression: cells, the probe and the batch start were stamped with
    ``time.time()``, so a wall clock stepping back mid-grid reported
    negative cell times and left ``pool.utilization`` unset.
    """

    @pytest.mark.parametrize(
        "jobs, inline_threshold", [(1, None), (2, 0.0)], ids=["inline", "pool"]
    )
    def test_wall_clock_stepping_back(
        self, monkeypatch, jobs, inline_threshold
    ):
        import itertools
        import time

        calls = itertools.count()
        # Every read of the wall clock lands an hour before the last.
        monkeypatch.setattr(time, "time", lambda: 2e9 - 3600.0 * next(calls))
        registry = MetricsRegistry()
        results = run_cells(
            _cells([1, 2, 3, 4]), jobs=jobs, metrics=registry,
            inline_threshold=inline_threshold,
        )
        assert results == [1, 4, 9, 16]
        snapshot = registry.as_dict()
        cell_seconds = snapshot["histograms"]["pool.cell_seconds"]
        queue_wait = snapshot["histograms"]["pool.queue_wait_seconds"]
        assert cell_seconds["count"] == 4
        assert cell_seconds["min"] >= 0.0 and queue_wait["min"] >= 0.0
        assert 0.0 < snapshot["gauges"]["pool.utilization"] <= 1.0
