"""The store's command-line surfaces: check-resume's cell count, and
``repro-experiments --store`` beside ``--trace``."""

import tempfile

import pytest

from repro.experiments.cli import main as experiments_main
from repro.obs.trace import read_trace
from repro.store.cli import _committed_cells
from repro.store.log import RunStore


class TestCommittedCells:
    def test_per_cell_files_count_one_and_chunks_count_members(
        self, tmp_path
    ):
        store = RunStore(tmp_path)
        for run in range(3):
            store.commit_result("table5", {"run": run}, run)
        store.commit_group_results(
            "table6", [{"run": run} for run in range(4)], [0, 1, 2, 3]
        )
        assert _committed_cells(tmp_path) == 3 + 4

    def test_unreadable_and_temporary_files_count_nothing(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", {"run": 0}, 0)
        (tmp_path / "table5" / "torn.json").write_bytes(b'{"resu')
        (tmp_path / "table5" / "tmpabc.tmp").write_bytes(b"{}")
        assert _committed_cells(tmp_path) == 1

    def test_older_tree_stream_directories_count_nothing(self, tmp_path):
        # An older tree's stream directory (meta.json, segments,
        # index.json) holds no committed cell the new tree can read.
        store = RunStore(tmp_path)
        old = store.stream_path("table5", {"run": 0}).with_suffix("")
        old.mkdir(parents=True)
        (old / "meta.json").write_text('{"results":[{}]}')
        (old / "index.json").write_text('{"results":[{}]}')
        store.commit_result("table5", {"run": 1}, 1)
        assert _committed_cells(tmp_path) == 1

    def test_empty_or_missing_store_counts_zero(self, tmp_path):
        assert _committed_cells(tmp_path / "absent") == 0


class TestTraceWithStore:
    @pytest.fixture
    def run(self, tmp_path, capsys, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        trace, store = tmp_path / "trace.jsonl", tmp_path / "store"

        def run(experiment):
            assert experiments_main([
                experiment, "--fast", "--seed", "1", "--requests", "60",
                "--no-cache", "--trace", str(trace), "--store", str(store),
            ]) == 0
            assert f"-> {trace}" in capsys.readouterr().out
            # The per-cell trace parts are gone once merged.
            assert list(scratch.iterdir()) == []
            return list(read_trace(trace)), store

        return run

    def test_traced_cells_write_the_merged_trace_only(self, run):
        # Traced cells run unkeyed, so they reach the trace, never the
        # store, and nothing is imported into the store afterwards.
        events, store = run("table5")
        assert events
        assert not store.exists()

    def test_untraced_cells_commit_result_files_only(self, run):
        _, store = run("multirelease")
        entries = sorted(store.rglob("*"))
        files = [path for path in entries if path.is_file()]
        assert files
        for path in entries:
            depth = len(path.relative_to(store).parts)
            assert depth == (2 if path.is_file() else 1)
        assert all(path.suffix == ".json" for path in files)
        assert _committed_cells(store) == len(files)
