"""Resumable grids: interrupted runs finish bit-identical.

The acceptance property of the event-sourced store: kill a grid run
after k cells, re-run it against the same store, and the rendered
output is byte-equal to an uninterrupted run — under both demand
backends and with or without the process pool.  The in-process tests
interrupt deterministically (run only a prefix of the grid, as an
interrupt would leave it); the subprocess test delivers a real SIGTERM
through the ``python -m repro.store check-resume`` harness CI uses.
"""

import dataclasses
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
    (group streams, chunk-consistent interrupts) has its own suite in
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

        # Resume: the executor discovers the 5 committed cells from the
        # log and executes only the rest.
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
        assert len(streams) == 1  # one group stream for the 12 cells
        index = streams[0] / "index.json"
        index.write_bytes(index.read_bytes()[:20])

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
        # Read torn by the resume scan, and again by the commit that
        # rewrites it.
        assert counters["store.torn_index"] == 2
        assert counters["backend.batched_cells"] == len(cells)
        assert counters["store.batch_commits"] == 1
        resumed, counters = rerun()
        assert resumed == text
        assert "store.torn_index" not in counters
        assert counters["store.batch_resume_skipped_cells"] == len(cells)
        assert "backend.batched_cells" not in counters

    def test_resume_rewarms_an_attached_cache(self, tmp_path):
        # The cache is a materialized view of the log: serving a cell
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


class TestSigtermResume:
    def test_check_resume_harness_end_to_end(self):
        # Real SIGTERM, real subprocesses: the exact harness CI runs.
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.store", "check-resume",
                "table5", "--kill-after", "2", "--jobs", "1",
                "--backend", "columnar", "--requests", str(REQUESTS),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, (
            result.stdout + "\n" + result.stderr
        )
        assert "resume determinism OK" in result.stdout
