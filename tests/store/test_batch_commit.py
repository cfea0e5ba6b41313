"""The batched durability grain: group commits.

The batched grid path changes *when* results hit the disk — one
fsync'd group file per chunk instead of one small file per cell —
without changing what a resumed run can recover.  These tests pin the
group result round-trip on :class:`RunStore`, chunk-grain resume
through ``run_cells``, and a real SIGTERM delivered across a batch
commit boundary via the ``check-resume`` harness.
"""

import dataclasses
import json
import struct
import subprocess
import sys

import pytest

from repro.experiments.event_sim import release_pair_cells
from repro.obs.metrics import MetricsRegistry
from repro.runtime.parallel import BatchSpec, CellSpec, run_cells
from repro.store.log import RunStore


def rows_as_bits(metrics):
    def canon(value):
        if isinstance(value, float):
            return struct.pack("<d", value).hex()
        return value

    return {
        column: {key: canon(value) for key, value in row.items()}
        for column, row in metrics.all_rows().items()
    }


class TestGroupResults:
    def keys(self, count=4):
        return [
            {"run": 1 + (i % 2), "timeout": 0.5 * (i + 1), "seed": 3}
            for i in range(count)
        ]

    def test_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        keys = self.keys()
        values = [{"cell": i, "mean": 0.25 * i} for i in range(len(keys))]
        store.commit_group_results("table5", keys, values)
        hit, loaded = store.load_group_results("table5", keys)
        assert hit
        assert loaded == values

    def test_group_file_holds_one_record_per_cell(self, tmp_path):
        store = RunStore(tmp_path / "store")
        keys = self.keys(5)
        store.commit_group_results(
            "table5", keys, [i for i in range(5)]
        )
        gkey = store.group_key("table5", keys)
        payload = json.loads(store.stream_path("table5", gkey).read_text())
        assert len(payload["results"]) == 5

    def test_subset_and_superset_membership_miss(self, tmp_path):
        # Group streams serve exactly the chunk they committed: a
        # different membership digests to a different stream, so both a
        # subset and a superset of a committed chunk are misses (and
        # re-run) rather than partial hits.
        store = RunStore(tmp_path / "store")
        keys = self.keys(4)
        store.commit_group_results(
            "table5", keys, list(range(4))
        )
        assert store.load_group_results("table5", keys[:3]) == (
            False, None
        )
        assert store.load_group_results(
            "table5", keys + self.keys(5)[4:]
        ) == (False, None)

    def test_unkeyed_member_misses(self, tmp_path):
        store = RunStore(tmp_path / "store")
        keys = self.keys(3)
        hit, _ = store.load_group_results(
            "table5", [keys[0], None, keys[2]]
        )
        assert not hit

    def test_commit_replaces_the_group_file(self, tmp_path):
        store = RunStore(tmp_path / "store")
        keys = self.keys(2)
        store.commit_group_results("table5", keys, ["a", "b"])
        # A replayed commit (e.g. the re-run of a damaged chunk)
        # replaces the group file whole: nothing grows or accumulates.
        store.commit_group_results("table5", keys, ["x", "y"])
        hit, loaded = store.load_group_results("table5", keys)
        assert hit
        assert loaded == ["x", "y"]
        assert len(list((tmp_path / "store").rglob("*"))) == 2

    def test_group_key_is_order_sensitive_and_deterministic(
        self, tmp_path
    ):
        store = RunStore(tmp_path / "store")
        keys = self.keys(3)
        assert store.group_key("table5", keys) == store.group_key(
            "table5", [dict(k) for k in keys]
        )
        assert store.group_key("table5", keys) != store.group_key(
            "table5", list(reversed(keys))
        )


class TestBatchedGridResume:
    REQUESTS = 150

    def grid(self, metrics=None):
        return release_pair_cells(
            "table5", "correlated", seed=7, requests=self.REQUESTS,
            backend="columnar", metrics=metrics,
        )

    def test_chunked_commits_and_full_resume(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_MAX_CELLS", "5")
        metrics = MetricsRegistry()
        store = RunStore(tmp_path / "store", metrics=metrics)
        first = run_cells(self.grid(metrics), metrics=metrics, store=store)
        counters = metrics.as_dict()["counters"]
        # 12 cells at a 5-cell chunk limit: 5 + 5 + 2.
        assert counters["store.batch_commits"] == 3
        assert len(list((tmp_path / "store" / "table5").iterdir())) == 3

        resumed_metrics = MetricsRegistry()
        resumed = run_cells(
            self.grid(resumed_metrics),
            metrics=resumed_metrics,
            store=RunStore(tmp_path / "store", metrics=resumed_metrics),
        )
        resumed_counters = resumed_metrics.as_dict()["counters"]
        assert resumed_counters["store.batch_resume_skipped_cells"] == 12
        assert "backend.batched_cells" not in resumed_counters
        for left, right in zip(first, resumed):
            assert rows_as_bits(left.metrics) == rows_as_bits(
                right.metrics
            )

    def test_resume_across_a_missing_chunk(self, tmp_path, monkeypatch):
        # Simulate a crash between batch commits: complete the grid,
        # then delete one group file (as if the run died before that
        # chunk's commit).  The resumed run must serve the surviving
        # chunks from the store, re-execute exactly the lost chunk, and
        # produce bit-identical results.
        monkeypatch.setenv("REPRO_BATCH_MAX_CELLS", "5")
        store_root = tmp_path / "store"
        baseline = run_cells(self.grid(), store=RunStore(store_root))
        streams = sorted((store_root / "table5").iterdir())
        assert len(streams) == 3
        victim = streams[1]
        lost = len(json.loads(victim.read_text())["results"])
        victim.unlink()

        metrics = MetricsRegistry()
        resumed = run_cells(
            self.grid(metrics), metrics=metrics,
            store=RunStore(store_root, metrics=metrics),
        )
        counters = metrics.as_dict()["counters"]
        assert counters["store.batch_resume_skipped_cells"] == 12 - lost
        assert counters["backend.batched_cells"] == lost
        assert counters["store.batch_commits"] == 1
        for left, right in zip(baseline, resumed):
            assert rows_as_bits(left.metrics) == rows_as_bits(
                right.metrics
            )

    def test_batched_and_per_cell_store_runs_agree(self, tmp_path):
        batched = run_cells(self.grid(), store=RunStore(tmp_path / "batched"))
        percell = run_cells(
            [dataclasses.replace(cell, batch=None) for cell in self.grid()],
            store=RunStore(tmp_path / "percell"),
        )
        for left, right in zip(batched, percell):
            assert rows_as_bits(left.metrics) == rows_as_bits(
                right.metrics
            )


def _square(x):
    return x * x


def _squares(kwargs_list, batch):
    return [kw["x"] * kw["x"] for kw in kwargs_list]


class TestStoreLookupWhereCellsCommit:
    """Each cell is looked up in the store where it would commit: a
    chunk in its group file, a per-cell-path cell in its own file."""

    def test_cold_batched_grid_makes_no_per_cell_lookup(
        self, tmp_path, monkeypatch
    ):
        looked_up = []
        load_result = RunStore.load_result

        def spy(store, experiment, key):
            looked_up.append(key)
            return load_result(store, experiment, key)

        monkeypatch.setattr(RunStore, "load_result", spy)
        cells = release_pair_cells(
            "table5", "correlated", seed=7, requests=150,
            backend="columnar",
        )
        run_cells(cells, store=RunStore(tmp_path / "store"))
        assert looked_up == []
        assert len(list((tmp_path / "store" / "table5").iterdir())) == 1

    def test_mixed_grid_resumes_each_cell_where_it_committed(
        self, tmp_path
    ):
        # Odd cells are batched (one group file), even ones take the
        # per-cell path (one file each).
        toy = BatchSpec(fn=_squares, group=("toy",))
        cells = [
            CellSpec(
                experiment="toy", fn=_square, kwargs={"x": x},
                key={"x": x}, batch=toy if x % 2 else None,
            )
            for x in range(4)
        ]

        def run():
            metrics = MetricsRegistry()
            results = run_cells(
                cells, metrics=metrics,
                store=RunStore(tmp_path / "store", metrics=metrics),
            )
            return results, metrics.as_dict()["counters"]

        first, counters = run()
        assert first == [0, 1, 4, 9]
        assert counters["pool.cells_executed"] == 2
        assert len(list((tmp_path / "store" / "toy").iterdir())) == 3

        again, counters = run()
        assert again == first
        assert "pool.cells_executed" not in counters
        assert counters["store.resume_skipped_cells"] == 2
        assert counters["store.batch_resume_skipped_cells"] == 2


class TestSigtermAcrossBatchBoundary:
    def test_check_resume_kills_between_batch_commits(self):
        # Real SIGTERM, real subprocesses: cap chunks at 4 cells so the
        # 12-cell grid commits in three fsync'd batches, and kill the
        # victim once the first batch (>= 4 cells) is durable — the
        # resume must cross a batch commit boundary bit-identically.
        # At 200,000 requests a chunk takes tens of milliseconds, so
        # the kill lands before the last chunk commits.
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.store", "check-resume",
                "table5", "--kill-after", "4", "--jobs", "1",
                "--backend", "columnar", "--requests", "200000",
                "--batch-max-cells", "4", "--seed", "5",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, (
            result.stdout + "\n" + result.stderr
        )
        assert "killed run after" in result.stdout
        assert "resume determinism OK" in result.stdout
