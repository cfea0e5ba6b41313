"""Tests for the process-pool cell executor."""

import os
import signal
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.runtime.parallel as parallel
from repro.common.errors import ConfigurationError, WorkerCrashError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import CellSpec, resolve_jobs, run_cells
from repro.store.log import RunStore

needs_notes = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="exception notes need Python 3.11+"
)


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


def _fail_at(x, bad):
    if x == bad:
        raise ValueError("bad input")
    return x * x


def _nap_and_square(x, marker_dir):
    time.sleep(0.2)
    return _touch_and_square(x, marker_dir)


def _kill_worker_once(x, marker_dir, parent_pid):
    # The first run in a pool worker SIGKILLs that worker, after a pause
    # that lets the cells dispatched before it be collected; any later
    # run (the resumed grid) returns normally.  Never kills the test
    # process itself.
    flag = os.path.join(marker_dir, "killed")
    if os.getpid() != parent_pid and not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(0.3)
        os.kill(os.getpid(), signal.SIGKILL)
    return _touch_and_square(x, marker_dir)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let ``jobs > 1`` reach the pool even on a single-CPU host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


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

    @pytest.mark.parametrize("jobs", [-1, -3])
    def test_negative_rejected(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs"):
            resolve_jobs(jobs)


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

    def _gauge(self, cells, jobs):
        registry = MetricsRegistry()
        run_cells(cells, jobs=jobs, metrics=registry)
        return registry.as_dict()["gauges"]["pool.jobs"]

    def test_inline_run_reports_one_worker(self):
        assert self._gauge(_cells([1, 2, 3]), jobs=1) == 1.0

    def test_single_cell_with_many_jobs_reports_one_worker(self):
        # One cell short-circuits to the inline path whatever jobs says.
        assert self._gauge(_cells([7]), jobs=4) == 1.0

    def test_pool_capped_by_cell_count(self, two_cpus):
        # Every pending cell pools: three cells, three workers.
        assert self._gauge(_cells([1, 2, 3]), jobs=4) == 3.0

    def test_pool_capped_by_jobs(self, two_cpus):
        assert self._gauge(_cells([1, 2, 3, 4, 5, 6]), jobs=2) == 2.0


class TestInlineProbe:
    """Which batches skip the pool, and that skipping it changes nothing.

    With ``jobs > 1`` every batch of two or more pending cells pools,
    unless the host has a single CPU: there the pool could only add
    fork + pickle tax, so the batch runs inline and is counted under
    ``pool.inline_cells``.
    """

    def _run(self, cells, jobs):
        registry = MetricsRegistry()
        results = run_cells(cells, jobs=jobs, metrics=registry)
        return results, registry.as_dict()

    def test_forced_pool_reports_no_inline_cells(self, two_cpus):
        results, snapshot = self._run(_cells([1, 2, 3, 4]), jobs=2)
        assert results == [1, 4, 9, 16]
        assert "pool.inline_cells" not in snapshot["counters"]
        assert snapshot["gauges"]["pool.jobs"] == 2.0

    def test_inline_diversion_matches_pool_results(self, monkeypatch):
        cells = [
            CellSpec("unit", _draw, {"seed": seed}) for seed in range(6)
        ]
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        inline, snapshot = self._run(cells, jobs=4)
        assert snapshot["counters"]["pool.inline_cells"] == 6
        assert snapshot["gauges"]["pool.jobs"] == 1.0
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled = run_cells(cells, jobs=4)
        assert inline == pooled


class _RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records what is submitted,
    in order, and runs each cell on the spot."""

    def __init__(self, submitted, max_workers, mp_context):
        self.submitted = submitted

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, spec):
        self.submitted.append(spec.kwargs["x"])
        future = Future()
        future.set_result(fn(spec))
        return future


class TestDispatchOrder:
    def test_cells_are_submitted_in_grid_order(self, monkeypatch, two_cpus):
        submitted = []
        monkeypatch.setattr(
            parallel,
            "ProcessPoolExecutor",
            lambda **kwargs: _RecordingPool(submitted, **kwargs),
        )
        cells = [CellSpec("unit", _square, {"x": x}) for x in range(6)]
        assert run_cells(cells, jobs=2) == [0, 1, 4, 9, 16, 25]
        assert submitted == [0, 1, 2, 3, 4, 5]


class TestPoolFaults:
    """A failing cell or a dead worker names the cells it concerns, and
    what was collected before the fault stays committed."""

    @needs_notes
    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pool"])
    def test_cell_exception_keeps_type_and_names_cell(self, two_cpus, jobs):
        cells = [
            CellSpec("unit", _fail_at, {"x": x, "bad": 2}, key={"x": x})
            for x in range(4)
        ]
        with pytest.raises(ValueError) as info:
            run_cells(cells, jobs=jobs)
        assert str(info.value) == "bad input"
        assert info.value.__notes__ == [
            "raised in cell 2 of 'unit' (key {'x': 2})"
        ]

    def test_cell_exception_cancels_cells_not_started(
        self, tmp_path, two_cpus
    ):
        # The failing cell is dispatched first; of the eight slow cells
        # behind it, only those already handed to a worker still run.
        cells = [CellSpec("unit", _fail_at, {"x": 0, "bad": 0})]
        cells += [
            CellSpec("unit", _nap_and_square,
                     {"x": x, "marker_dir": str(tmp_path)})
            for x in range(1, 9)
        ]
        with pytest.raises(ValueError):
            run_cells(cells, jobs=2)
        assert len(list(tmp_path.glob("*.ran"))) < 8

    def test_pool_unavailable_falls_back_inline(self, monkeypatch, two_cpus):
        def refuse(**kwargs):
            raise PermissionError("no semaphores on this platform")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            assert run_cells(_cells([1, 2, 3]), jobs=2) == [1, 4, 9]

    def _crashing_grid(self, tmp_path):
        markers = tmp_path / "markers"
        markers.mkdir()
        cells = _cells([1, 2, 3, 4], marker_dir=markers)
        # Last in the grid: dispatched last.
        cells.append(
            CellSpec(
                "unit",
                _kill_worker_once,
                {"x": 5, "marker_dir": str(markers),
                 "parent_pid": os.getpid()},
                key={"x": 5},
            )
        )
        return cells, markers

    def _committed(self, store, cells):
        return [store.load_result("unit", cell.key)[0] for cell in cells]

    def test_killed_worker_names_every_unfinished_cell(
        self, tmp_path, two_cpus
    ):
        cells, _ = self._crashing_grid(tmp_path)
        store = RunStore(tmp_path / "store")
        with pytest.raises(WorkerCrashError) as info:
            run_cells(cells, jobs=2, store=store)
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        message = str(info.value)
        assert "cell 4 of 'unit' (key {'x': 5})" in message
        # Exactly the cells whose results were not committed are named.
        for index, committed in enumerate(self._committed(store, cells)):
            assert (f"cell {index} of 'unit'" in message) != committed

    def test_resume_after_crash_runs_only_uncommitted_cells(
        self, tmp_path, two_cpus
    ):
        cells, markers = self._crashing_grid(tmp_path)
        with pytest.raises(WorkerCrashError):
            run_cells(cells, jobs=2, store=RunStore(tmp_path / "store"))
        store = RunStore(tmp_path / "store")
        uncommitted = self._committed(store, cells).count(False)
        assert uncommitted >= 1
        ran_before = len(list(markers.glob("*.ran")))
        registry = MetricsRegistry()
        results = run_cells(cells, jobs=2, store=store, metrics=registry)
        assert results == [1, 4, 9, 16, 25]
        assert len(list(markers.glob("*.ran"))) - ran_before == uncommitted
        resumed = registry.as_dict()["counters"].get(
            "store.resume_skipped_cells", 0
        )
        assert resumed == len(cells) - uncommitted


class TestPoolTimingsClock:
    """Pool timings are immune to wall-clock steps.

    Regression: cells and the batch start were stamped with
    ``time.time()``, so a wall clock stepping back mid-grid reported
    negative cell times and left ``pool.utilization`` unset.
    """

    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pool"])
    def test_wall_clock_stepping_back(self, monkeypatch, two_cpus, jobs):
        import itertools
        import time

        calls = itertools.count()
        # Every read of the wall clock lands an hour before the last.
        monkeypatch.setattr(time, "time", lambda: 2e9 - 3600.0 * next(calls))
        registry = MetricsRegistry()
        results = run_cells(_cells([1, 2, 3, 4]), jobs=jobs, metrics=registry)
        assert results == [1, 4, 9, 16]
        snapshot = registry.as_dict()
        cell_seconds = snapshot["histograms"]["pool.cell_seconds"]
        queue_wait = snapshot["histograms"]["pool.queue_wait_seconds"]
        assert cell_seconds["count"] == 4
        assert cell_seconds["min"] >= 0.0 and queue_wait["min"] >= 0.0
        assert 0.0 < snapshot["gauges"]["pool.utilization"] <= 1.0
