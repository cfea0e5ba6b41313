"""Two runs on one store: concurrent commits of the same results.

A commit writes its whole file to a uniquely named temp file beside it
and renames that over the old file, and a deterministic grid writes
the same bytes every time.  So two processes that commit the same
results into one store root should race only on which rename lands
last.  Here two processes commit a batched ``table5 --fast`` chunk (one
fsync'd group file) and the per-cell ``multirelease --fast`` cells (one
file each) into one root, round after round, while this process reads
them.  Every read and every file left behind must load without
``store.corrupt``, each file must be the single-process commit's byte
for byte, and no temp file may remain.
"""

import multiprocessing
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    ExperimentOptions, discover, get_spec, run_experiment,
)
from repro.store.log import RunStore

#: Rounds in which each racing process commits every recorded result.
ROUNDS = 25

#: Seconds a racing process may take to start, and then to finish.
TIMEOUT_S = 60.0


class RecordingStore(RunStore):
    """A run store that also records each commit, in order."""

    def __init__(self, root):
        super().__init__(root)
        self.commits = []

    def commit_result(self, experiment, key, value):
        self.commits.append(("commit_result", experiment, key, value))
        super().commit_result(experiment, key, value)

    def commit_group_results(self, experiment, keys, values):
        self.commits.append(
            ("commit_group_results", experiment, keys, values)
        )
        super().commit_group_results(experiment, keys, values)


def _files(root):
    """Every file under *root*, by relative path, with its bytes."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _load_all(store, commits):
    """Load every recorded commit back; the number found."""
    found = 0
    for method, experiment, key, _value in commits:
        if method == "commit_result":
            hit, _ = store.load_result(experiment, key)
        else:
            hit, _ = store.load_group_results(experiment, key)
        found += hit
    return found


def _commit_rounds(root, commits, barrier):
    store = RunStore(root)
    barrier.wait(TIMEOUT_S)
    for _ in range(ROUNDS):
        for method, *args in commits:
            getattr(store, method)(*args)


@pytest.fixture(scope="module")
def single(tmp_path_factory):
    """The commits of one process's grids, and the files they left."""
    root = tmp_path_factory.mktemp("single") / "store"
    store = RecordingStore(root)
    discover()
    for name in ("table5", "multirelease"):
        run_experiment(
            get_spec(name),
            ExperimentOptions(seed=1, fast=True, store=store),
        )
    return store.commits, _files(root)


def test_both_commit_paths_are_recorded(single):
    commits, files = single
    methods = [method for method, *_ in commits]
    assert methods.count("commit_group_results") == 1
    assert methods.count("commit_result") >= 2
    assert len(files) == len(commits)


def test_two_processes_commit_the_same_results(single, tmp_path):
    commits, expected = single
    root = tmp_path / "store"
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(2)
    writers = [
        context.Process(target=_commit_rounds, args=(root, commits, barrier))
        for _ in range(2)
    ]
    registry = MetricsRegistry()
    reader = RunStore(root, metrics=registry)
    reads = 0
    for writer in writers:
        writer.start()
    deadline = time.monotonic() + 2 * TIMEOUT_S
    try:
        while (
            any(writer.is_alive() for writer in writers)
            and time.monotonic() < deadline
        ):
            _load_all(reader, commits)
            reads += 1
    finally:
        for writer in writers:
            writer.join(TIMEOUT_S)
            if writer.is_alive():
                writer.kill()
                writer.join()
    assert [writer.exitcode for writer in writers] == [0, 0]
    assert reads > 0

    assert _load_all(reader, commits) == len(commits)
    assert "store.corrupt" not in registry.as_dict()["counters"]
    assert not list(root.rglob("*.tmp"))
    assert _files(root) == expected
