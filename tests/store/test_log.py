"""Unit tests for the run store: one sealed file per cell or chunk."""

import base64
import errno
import hashlib
import json
import os
import stat

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runtime.cache import ResultCache
from repro.store.log import LAYOUT_VERSION, RunStore, canonical_stream_key

KEY = {"run": 1, "timeout": 1.5, "seed": 42}
GROUP_KEYS = [dict(KEY, timeout=t) for t in (1.5, 2.0, 3.0)]


def edited(change):
    """A damage that decodes the file, applies *change* to its payload
    and writes it back: the file still decodes, one field is wrong."""
    def damage(raw):
        payload = json.loads(raw)
        change(payload)
        return json.dumps(payload).encode("utf-8")
    return damage


def flip_result_char(payload):
    """Change one base64 character mid-way through the first result."""
    record = payload["results"][0]
    text = record["result"]
    at = len(text) // 2
    flipped = "A" if text[at] != "A" else "B"
    record["result"] = text[:at] + flipped + text[at + 1:]


def duplicate_last_record(payload):
    payload["results"].append(dict(payload["results"][-1]))


#: Ways a stream file can be damaged: a torn write, bytes that are not
#: JSON, a file of another (or no) layout version, one without its
#: records, records naming other members or one record too many, a
#: record without its digest and one whose bytes fail it.
DAMAGES = {
    "truncated": lambda raw: raw[: len(raw) // 2],
    "emptied": lambda raw: b"",
    "not-an-object": lambda raw: b"[]\n",
    "not-utf8": lambda raw: b"\xff\xfe{",
    "other-layout": edited(lambda p: p.update(layout=LAYOUT_VERSION + 1)),
    "no-layout": edited(lambda p: p.pop("layout")),
    "no-results": edited(lambda p: p.pop("results")),
    "other-members": edited(lambda p: p["results"][0].update(cell="x")),
    "extra-record": edited(duplicate_last_record),
    "no-digest": edited(lambda p: p["results"][0].pop("sha256")),
    "flipped-byte": edited(flip_result_char),
}


def damage_file(path, damage):
    path.write_bytes(DAMAGES[damage](path.read_bytes()))


def stream_files(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


class TestRunStore:
    def test_commit_and_load_result(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, {"met": 1.32})
        hit, value = store.load_result("table5", KEY)
        assert hit and value == {"met": 1.32}

    def test_missing_stream_is_a_miss(self, tmp_path):
        metrics = MetricsRegistry()
        store = RunStore(tmp_path, metrics=metrics)
        assert store.load_result("table5", KEY) == (False, None)
        assert "store.corrupt" not in metrics.as_dict()["counters"]

    def test_incomplete_stream_is_a_miss(self, tmp_path):
        # A commit killed before its rename leaves only its temp file
        # beside the target.  Readers open the target alone, so the
        # cell is a plain miss, not a damaged file.
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, {"met": 1.32})
        path = store.stream_path("table5", KEY)
        path.rename(path.with_name("tmpk9x2q1.tmp"))
        metrics = MetricsRegistry()
        reader = RunStore(tmp_path, metrics=metrics)
        assert reader.load_result("table5", KEY) == (False, None)
        assert "store.corrupt" not in metrics.as_dict()["counters"]

    def test_older_tree_stream_directory_reads_as_empty(self, tmp_path):
        # An older tree kept each stream as a directory named by the
        # same digest (meta.json, a segment and index.json).  The new
        # tree finds no file: a plain miss, and the re-run's commit
        # lands beside the old directory in the one-file layout.
        store = RunStore(tmp_path)
        path = store.stream_path("table5", KEY)
        old = path.with_suffix("")
        old.mkdir(parents=True)
        (old / "meta.json").write_text(json.dumps(
            {"experiment": "table5", "key": KEY}
        ))
        (old / "segment-00000000.jsonl").write_text(
            '{"kind":"cell_result","seq":0,"v":2}\n'
        )
        (old / "index.json").write_text(json.dumps(
            {"committed": 1, "complete": True}
        ))
        metrics = MetricsRegistry()
        reader = RunStore(tmp_path, metrics=metrics)
        assert reader.load_result("table5", KEY) == (False, None)
        assert "store.corrupt" not in metrics.as_dict()["counters"]
        reader.commit_result("table5", KEY, "rerun")
        assert RunStore(tmp_path).load_result("table5", KEY) == (
            True, "rerun",
        )
        assert path.is_file()

    def test_corrupt_snapshot_degrades_to_miss(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, {"met": 1.32})
        path = store.stream_path("table5", KEY)
        text = path.read_text()
        marker = '"sha256":"'
        at = text.index(marker) + len(marker)
        # Flip one digest character in place: the file still decodes,
        # only the sha256 is wrong.
        flipped = "0" if text[at] != "0" else "1"
        path.write_text(text[:at] + flipped + text[at + 1:])
        hit, _ = store.load_result("table5", KEY)
        assert not hit

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_file_is_a_counted_miss_and_recommit_repairs_it(
        self, tmp_path, damage
    ):
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, {"met": 1.32})
        damage_file(store.stream_path("table5", KEY), damage)
        metrics = MetricsRegistry()
        reader = RunStore(tmp_path, metrics=metrics)
        assert reader.load_result("table5", KEY) == (False, None)
        assert metrics.as_dict()["counters"]["store.corrupt"] == 1
        # The re-run's commit replaces the file whole.
        reader.commit_result("table5", KEY, {"met": 2.5})
        assert RunStore(tmp_path).load_result("table5", KEY) == (
            True, {"met": 2.5},
        )
        assert len(stream_files(tmp_path)) == 1

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_group_file_is_a_counted_miss_and_recommit_repairs_it(
        self, tmp_path, damage
    ):
        store = RunStore(tmp_path)
        store.commit_group_results("table5", GROUP_KEYS, ["a", "b", "c"])
        path = store.stream_path(
            "table5", store.group_key("table5", GROUP_KEYS)
        )
        damage_file(path, damage)
        metrics = MetricsRegistry()
        reader = RunStore(tmp_path, metrics=metrics)
        assert reader.load_group_results("table5", GROUP_KEYS) == (
            False, None,
        )
        assert metrics.as_dict()["counters"]["store.corrupt"] == 1
        reader.commit_group_results("table5", GROUP_KEYS, ["x", "y", "z"])
        assert RunStore(tmp_path).load_group_results(
            "table5", GROUP_KEYS
        ) == (True, ["x", "y", "z"])
        assert len(stream_files(tmp_path)) == 1

    def test_commit_leaves_one_file_and_no_temp(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, {"met": 1.32})
        store.commit_group_results("table6", GROUP_KEYS, [1, 2, 3])
        files = stream_files(tmp_path)
        assert [p.relative_to(tmp_path).parts[0] for p in files] == [
            "table5", "table6",
        ]
        assert store.stream_path("table5", KEY) in files
        for path in files:
            assert path.suffix == ".json"
            assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_file_holds_one_record_per_commit_unit(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, "cell")
        store.commit_group_results("table5", GROUP_KEYS, [1, 2, 3])
        single = json.loads(store.stream_path("table5", KEY).read_bytes())
        assert single["layout"] == LAYOUT_VERSION
        assert [sorted(r) for r in single["results"]] == [
            ["bytes", "result", "sha256"]
        ]
        group = json.loads(store.stream_path(
            "table5", store.group_key("table5", GROUP_KEYS)
        ).read_bytes())
        assert [r["cell"] for r in group["results"]] == [
            canonical_stream_key("table5", key) for key in GROUP_KEYS
        ]

    def test_commit_result_replaces_the_file(self, tmp_path):
        # A re-commit replaces the file whole (it is how a damaged file
        # is repaired), and a deterministic cell writes the same bytes.
        store = RunStore(tmp_path)
        path = store.stream_path("table5", KEY)
        store.commit_result("table5", KEY, "first")
        first = path.read_bytes()
        store.commit_result("table5", KEY, "first")
        assert path.read_bytes() == first
        store.commit_result("table5", KEY, "second")
        assert store.load_result("table5", KEY) == (True, "second")
        assert len(stream_files(tmp_path)) == 1

    @pytest.mark.parametrize(
        "value",
        [None, float("inf"), (1, "a", [2.5]), {"rows": {"x": [1.0]}},
         np.float64(1.25)],
        ids=["none", "inf", "tuple", "nested", "numpy-scalar"],
    )
    def test_result_values_round_trip(self, tmp_path, value):
        # Results ride as pickle bytes, not JSON: a None result is a
        # hit, a tuple stays a tuple, and numpy scalars keep their type.
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, value)
        store.commit_group_results("table5", GROUP_KEYS, [value] * 3)
        reader = RunStore(tmp_path)
        hit, loaded = reader.load_result("table5", KEY)
        assert hit and loaded == value and type(loaded) is type(value)
        hit, values = reader.load_group_results("table5", GROUP_KEYS)
        assert hit and values == [value] * 3
        assert [type(v) for v in values] == [type(value)] * 3

    def test_file_is_named_by_the_key_digest(self, tmp_path):
        # The file's stem is the sha256 of the canonical stream key, so
        # a cell's file is found from its experiment and key alone.
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, 1)
        digest = hashlib.sha256(
            canonical_stream_key("table5", KEY).encode("utf-8")
        ).hexdigest()
        assert stream_files(tmp_path) == [
            tmp_path / "table5" / f"{digest}.json"
        ]

    def test_key_order_does_not_change_the_stream(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, "cell")
        reordered = dict(reversed(list(KEY.items())))
        assert store.stream_path("table5", reordered) == store.stream_path(
            "table5", KEY
        )
        assert store.load_result("table5", reordered) == (True, "cell")

    def test_experiments_do_not_alias(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", KEY, "five")
        store.commit_result("table6", KEY, "six")
        assert store.load_result("table5", KEY) == (True, "five")
        assert store.load_result("table6", KEY) == (True, "six")
        assert len(stream_files(tmp_path)) == 2

    def test_cell_and_group_files_do_not_alias(self, tmp_path):
        # A one-member chunk and its cell's own commit are two streams:
        # neither load takes the other's file for a hit.
        store = RunStore(tmp_path)
        store.commit_group_results("table5", [KEY], ["chunk"])
        assert store.load_result("table5", KEY) == (False, None)
        store.commit_result("table5", KEY, "cell")
        assert store.load_group_results("table5", [KEY]) == (
            True, ["chunk"],
        )
        assert store.load_result("table5", KEY) == (True, "cell")
        assert len(stream_files(tmp_path)) == 2

    def test_file_bytes_are_canonical_json(self, tmp_path):
        # Sorted keys and compact separators: the same results give the
        # same bytes in any store.
        values = [1.5, None, "c"]
        files = []
        for root in (tmp_path / "a", tmp_path / "b"):
            store = RunStore(root)
            store.commit_group_results("table5", GROUP_KEYS, values)
            files.append(store.stream_path(
                "table5", store.group_key("table5", GROUP_KEYS)
            ).read_bytes())
        payload = json.loads(files[0])
        assert files[0] == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        assert files[1] == files[0]

    def test_commit_creates_the_experiment_folder(self, tmp_path):
        root = tmp_path / "not" / "yet"
        RunStore(root).commit_result("table5", KEY, 1)
        assert RunStore(root).load_result("table5", KEY) == (True, 1)
        assert stream_files(root) == [RunStore(root).stream_path(
            "table5", KEY
        )]

    def test_metrics_counters(self, tmp_path):
        # Chunk commits are counted; per-cell commits and hits are not.
        metrics = MetricsRegistry()
        store = RunStore(tmp_path, metrics=metrics)
        store.commit_result("table5", KEY, 1)
        store.commit_group_results("table5", GROUP_KEYS, [1, 2, 3])
        store.commit_group_results("table6", GROUP_KEYS, [1, 2, 3])
        assert store.load_result("table5", KEY) == (True, 1)
        assert store.load_group_results("table5", GROUP_KEYS) == (
            True, [1, 2, 3],
        )
        assert metrics.as_dict()["counters"] == {"store.batch_commits": 2}

    def test_stream_key_has_no_version_salts(self):
        # Unlike cache keys, stream keys are not salted with cache/lint
        # versions: the store's layout is versioned on its own, so a
        # ruleset bump must not orphan committed cells.
        key = canonical_stream_key("table5", {"run": 1})
        payload = json.loads(key)
        assert set(payload) == {"experiment", "key"}

    def test_snapshot_bytes_equal_cache_bytes(self, tmp_path):
        # The cache entry and the store's result record are the same
        # bytes, so a store hit can re-warm the cache bit for bit.
        value = {"met": 1.3293, "rows": [1, 2, 3]}
        key = {"run": 1, "seed": 7}

        cache = ResultCache(tmp_path / "cache")
        cache.put("table5", key, value)
        cache_file = next((tmp_path / "cache").rglob("*.pkl"))

        store = RunStore(tmp_path / "store")
        store.commit_result("table5", key, value)
        record = json.loads(
            store.stream_path("table5", key).read_bytes()
        )["results"][0]
        snapshot = base64.b64decode(record["result"])

        assert snapshot == cache_file.read_bytes()
        assert record["bytes"] == len(snapshot)


class TestDurability:
    """Chunk commits reach the disk before they become visible."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            log.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            log.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return log

    def test_chunk_commit_fsyncs_once_before_the_rename(
        self, tmp_path, calls
    ):
        RunStore(tmp_path).commit_group_results(
            "table5", GROUP_KEYS, [1, 2, 3]
        )
        assert calls == ["fsync", "replace"]

    def test_per_cell_commit_never_fsyncs(self, tmp_path, calls):
        RunStore(tmp_path).commit_result("table5", KEY, 1)
        assert calls == ["replace"]

    def test_failed_chunk_commit_leaves_nothing_visible(
        self, tmp_path, monkeypatch
    ):
        # A chunk whose fsync fails never becomes visible: the commit
        # raises, the temp file is removed, and the chunk stays a miss.
        def fsync(fd):
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setattr(os, "fsync", fsync)
        store = RunStore(tmp_path)
        with pytest.raises(OSError):
            store.commit_group_results("table5", GROUP_KEYS, [1, 2, 3])
        assert store.load_group_results("table5", GROUP_KEYS) == (
            False, None,
        )
        assert stream_files(tmp_path) == []

    @pytest.mark.parametrize("unit", ["cell", "chunk"])
    def test_failed_recommit_keeps_the_last_commit(
        self, tmp_path, monkeypatch, unit
    ):
        # A re-commit that fails at its rename leaves the file that was
        # there before, whole, and no temp file.
        store = RunStore(tmp_path)
        if unit == "cell":
            def commit(value):
                store.commit_result("table5", KEY, value)

            def load():
                return store.load_result("table5", KEY)
        else:
            def commit(value):
                store.commit_group_results(
                    "table5", GROUP_KEYS, [value] * 3
                )

            def load():
                return store.load_group_results("table5", GROUP_KEYS)

        commit("first")
        before = load()
        assert before[0]

        def replace(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError):
            commit("second")
        monkeypatch.undo()
        assert load() == before
        assert len(stream_files(tmp_path)) == 1
