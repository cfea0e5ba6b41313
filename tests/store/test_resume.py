"""Resumable grids: interrupted runs finish bit-identical.

The acceptance property of the run store: kill a grid run
after k cells, re-run it against the same store, and the rendered
output is byte-equal to an uninterrupted run — under both demand
backends and with or without the process pool.  The in-process tests
interrupt deterministically (run only a prefix of the grid, as an
interrupt would leave it); the subprocess test delivers a real SIGTERM
through the ``python -m repro.store check-resume`` harness CI uses.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.experiments.paper_params import DEFAULT_SEED
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import discover, run_experiment
from repro.pipeline.registry import get_spec
from repro.pipeline.spec import ExperimentOptions
from repro.runtime.parallel import run_cells
from repro.store.log import RunStore

discover()

#: Small but non-trivial per-cell workload (12 cells for table5).
REQUESTS = 200


def options_for(jobs, backend, store, metrics=None):
    return ExperimentOptions(
        seed=DEFAULT_SEED,
        fast=True,
        jobs=jobs,
        cache=None,
        requests=REQUESTS,
        metrics=metrics,
        backend=backend,
        store=store,
    )


def per_cell_grid(spec, opts):
    """The grid's cells with their BatchSpec stripped.

    This pins the per-cell durability grain these tests are about: the
    prefix-interrupt simulation below commits k *cells*, which only
    matches what a resumed run looks up per cell.  The batched grain
    (group files, chunk-consistent interrupts) has its own suite in
    tests/store/test_batch_commit.py.
    """
    return [
        dataclasses.replace(cell, batch=None)
        for cell in spec.build_cells(opts, spec.sizes(opts))
    ]


def run_per_cell(spec, opts):
    """Run the per-cell grid through the engine's executor; render it."""
    results = run_cells(
        per_cell_grid(spec, opts), jobs=opts.jobs, metrics=opts.metrics,
        store=opts.store,
    )
    return spec.render(spec.reduce(results, opts), opts)


class TestInProcessResume:
    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("backend", ["event", "columnar"])
    def test_interrupted_grid_resumes_bit_identical(
        self, tmp_path, jobs, backend
    ):
        spec = get_spec("table5")

        # Uninterrupted baseline, no store.
        baseline = run_experiment(
            spec, options_for(jobs, backend, store=None)
        )

        # "Interrupt": execute only a prefix of the grid against the
        # store — exactly the state a SIGTERM after k commits leaves.
        store_root = tmp_path / "store"
        store = RunStore(store_root)
        cells = per_cell_grid(spec, options_for(jobs, backend, store=store))
        assert len(cells) >= 6
        run_cells(cells[:5], jobs=jobs, store=store)

        # Resume: the executor discovers the 5 committed cells in the
        # store and executes only the rest.
        metrics = MetricsRegistry()
        resumed = run_per_cell(
            spec,
            options_for(
                jobs, backend, store=RunStore(store_root), metrics=metrics
            ),
        )
        counters = metrics.as_dict()["counters"]
        assert counters["store.resume_skipped_cells"] == 5
        assert counters.get("pool.cells_executed", 0) == len(cells) - 5
        assert resumed == baseline.text

    def test_fully_committed_grid_replays_without_executing(
        self, tmp_path
    ):
        spec = get_spec("table5")
        store_root = tmp_path / "store"
        first = run_per_cell(
            spec, options_for(1, "columnar", RunStore(store_root))
        )
        metrics = MetricsRegistry()
        replay = run_per_cell(
            spec,
            options_for(
                1, "columnar", RunStore(store_root), metrics=metrics
            ),
        )
        counters = metrics.as_dict()["counters"]
        assert counters.get("pool.cells_executed", 0) == 0
        assert counters["store.resume_skipped_cells"] > 0
        assert replay == first

    def test_torn_group_index_reruns_its_chunk_and_repairs_it(
        self, tmp_path
    ):
        spec = get_spec("table5")
        store_root = tmp_path / "store"
        opts = options_for(1, "columnar", RunStore(store_root))
        cells = spec.build_cells(opts, spec.sizes(opts))
        first = run_cells(cells, store=RunStore(store_root))
        text = spec.render(spec.reduce(first, opts), opts)
        streams = sorted((store_root / "table5").iterdir())
        assert len(streams) == 1  # one group file for the 12 cells
        streams[0].write_bytes(streams[0].read_bytes()[:20])

        def rerun():
            metrics = MetricsRegistry()
            results = run_cells(
                spec.build_cells(opts, spec.sizes(opts)), metrics=metrics,
                store=RunStore(store_root, metrics=metrics),
            )
            counters = metrics.as_dict()["counters"]
            return spec.render(spec.reduce(results, opts), opts), counters

        repaired, counters = rerun()
        assert repaired == text
        # Read torn by the resume scan; the commit replaces it unread.
        assert counters["store.corrupt"] == 1
        assert counters["backend.batched_cells"] == len(cells)
        assert counters["store.batch_commits"] == 1
        resumed, counters = rerun()
        assert resumed == text
        assert "store.corrupt" not in counters
        assert counters["store.batch_resume_skipped_cells"] == len(cells)
        assert "backend.batched_cells" not in counters

    def test_resume_rewarms_an_attached_cache(self, tmp_path):
        # Cache and store hold the same snapshot bytes: serving a cell
        # from the store writes it back into the cache.
        from repro.runtime.cache import ResultCache

        spec = get_spec("table5")
        store_root = tmp_path / "store"
        run_experiment(spec, options_for(1, "columnar", RunStore(store_root)))

        cache = ResultCache(tmp_path / "cache")
        opts = ExperimentOptions(
            seed=DEFAULT_SEED,
            fast=True,
            jobs=1,
            cache=cache,
            requests=REQUESTS,
            backend="columnar",
            store=RunStore(store_root),
        )
        assert cache.entry_count() == 0
        run_experiment(spec, opts)
        assert cache.entry_count() > 0


def flip_one_byte(path):
    """Change one base64 character inside the file's first result: the
    file still decodes, only that record's sha256 check fails."""
    raw = path.read_bytes()
    at = raw.index(b'"result":"') + len(b'"result":"') + 40
    flipped = b"A" if raw[at:at + 1] != b"A" else b"B"
    path.write_bytes(raw[:at] + flipped + raw[at + 1:])


class TestFlippedByteRepair:
    """A stream file failing its sha256 re-runs once and is repaired."""

    def run(self, spec, opts, cells, store_root):
        metrics = MetricsRegistry()
        results = run_cells(
            cells, metrics=metrics,
            store=RunStore(store_root, metrics=metrics),
        )
        text = spec.render(spec.reduce(results, opts), opts)
        return text, metrics.as_dict()["counters"]

    def test_per_cell_file(self, tmp_path):
        spec = get_spec("table5")
        store_root = tmp_path / "store"
        opts = options_for(1, "columnar", store=None)
        cells = per_cell_grid(spec, opts)
        first, _ = self.run(spec, opts, cells, store_root)
        flip_one_byte(RunStore(store_root).stream_path(
            cells[3].experiment, cells[3].key
        ))

        again, counters = self.run(spec, opts, cells, store_root)
        assert counters["store.corrupt"] == 1
        assert counters["pool.cells_executed"] == 1
        assert counters["store.resume_skipped_cells"] == len(cells) - 1
        assert again == first

        last, counters = self.run(spec, opts, cells, store_root)
        assert "store.corrupt" not in counters
        assert "pool.cells_executed" not in counters
        assert counters["store.resume_skipped_cells"] == len(cells)
        assert last == first

    def test_chunk_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_MAX_CELLS", "5")
        spec = get_spec("table5")
        store_root = tmp_path / "store"
        opts = options_for(1, "columnar", store=None)
        cells = spec.build_cells(opts, spec.sizes(opts))
        first, _ = self.run(spec, opts, cells, store_root)
        chunks = sorted((store_root / "table5").iterdir())
        assert len(chunks) == 3  # 12 cells at 5 per chunk: 5 + 5 + 2
        victim = chunks[1]
        lost = len(json.loads(victim.read_bytes())["results"])
        flip_one_byte(victim)

        again, counters = self.run(spec, opts, cells, store_root)
        assert counters["store.corrupt"] == 1
        assert counters["backend.batched_cells"] == lost
        assert counters["store.batch_commits"] == 1
        assert counters["store.batch_resume_skipped_cells"] == (
            len(cells) - lost
        )
        assert again == first

        last, counters = self.run(spec, opts, cells, store_root)
        assert "store.corrupt" not in counters
        assert "backend.batched_cells" not in counters
        assert counters["store.batch_resume_skipped_cells"] == len(cells)
        assert last == first


class TestOlderTreeStore:
    def test_reads_as_empty_reruns_once_then_resumes(self, tmp_path):
        # A store an older tree filled holds one directory per stream,
        # named by the same digest.  The new tree reads none of it: the
        # grid re-runs whole, without counting damage, commits in the
        # one-file layout, and the run after resumes every cell.
        spec = get_spec("table5")
        store_root = tmp_path / "store"
        opts = options_for(1, "columnar", store=None)
        cells = per_cell_grid(spec, opts)
        for cell in cells:
            old = RunStore(store_root).stream_path(
                cell.experiment, cell.key
            ).with_suffix("")
            old.mkdir(parents=True)
            (old / "index.json").write_text(
                '{"committed": 1, "complete": true}'
            )

        def run():
            metrics = MetricsRegistry()
            results = run_cells(
                cells, metrics=metrics,
                store=RunStore(store_root, metrics=metrics),
            )
            text = spec.render(spec.reduce(results, opts), opts)
            return text, metrics.as_dict()["counters"]

        first, counters = run()
        assert "store.corrupt" not in counters
        assert "store.resume_skipped_cells" not in counters
        assert counters["pool.cells_executed"] == len(cells)
        assert len(list((store_root / "table5").glob("*.json"))) == len(
            cells
        )

        again, counters = run()
        assert "pool.cells_executed" not in counters
        assert counters["store.resume_skipped_cells"] == len(cells)
        assert again == first


def check_resume(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.store", "check-resume", "table5",
         *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestSigtermResume:
    def test_check_resume_harness_end_to_end(self):
        # Real SIGTERM, real subprocesses: the exact harness CI runs,
        # on the per-cell path (event kernel), which commits cell by
        # cell.
        result = check_resume(
            "--kill-after", "3", "--jobs", "1", "--backend", "event",
            "--requests", "300",
        )
        assert result.returncode == 0, (
            result.stdout + "\n" + result.stderr
        )
        assert "killed run after" in result.stdout
        assert "resume determinism OK" in result.stdout

    def test_a_kill_that_interrupts_nothing_fails(self):
        # Columnar cells of one 12-cell grid commit as one chunk, so no
        # kill can land mid-grid: the check must fail, not pass on a
        # replay of a finished store.
        result = check_resume(
            "--kill-after", "2", "--jobs", "1", "--backend", "columnar",
            "--requests", str(REQUESTS),
        )
        assert result.returncode == 1, (
            result.stdout + "\n" + result.stderr
        )
        assert "the kill did not interrupt the run" in result.stderr
        assert "holds 12 of the baseline's 12 cell(s)" in result.stderr
        assert "resume determinism" not in result.stdout
