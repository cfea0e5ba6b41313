"""Unit tests for the segmented event log (EventStream / RunStore)."""

import io
import json
import stat

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import JsonlTracer, read_trace
from repro.store.log import (
    DEFAULT_SEGMENT_EVENTS,
    EventStream,
    RunStore,
    canonical_stream_key,
)


def fill(stream, count, start=0):
    for i in range(start, start + count):
        stream.append("dispatch", {"t": float(i), "eid": i})


class TestEventStream:
    def test_append_commit_read_round_trip(self, tmp_path):
        stream = EventStream(tmp_path / "s")
        fill(stream, 3)
        stream.commit()
        stream.close()
        events = list(EventStream(tmp_path / "s").read())
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert [e["eid"] for e in events] == [0, 1, 2]

    def test_uncommitted_events_invisible_to_readers(self, tmp_path):
        stream = EventStream(tmp_path / "s")
        fill(stream, 2)
        stream.commit()
        fill(stream, 3, start=2)  # appended, never committed
        stream.close()
        assert len(list(EventStream(tmp_path / "s").read())) == 2

    def test_segment_rotation(self, tmp_path):
        stream = EventStream(tmp_path / "s", segment_events=10)
        fill(stream, 35)
        stream.commit()
        stream.close()
        files = sorted(p.name for p in tmp_path.glob("s/segment-*.jsonl"))
        assert len(files) == 4
        reopened = EventStream(tmp_path / "s")
        assert reopened.committed_events == 35
        assert [e["seq"] for e in reopened.read()] == list(range(35))

    def test_read_from_start_seq(self, tmp_path):
        stream = EventStream(tmp_path / "s", segment_events=10)
        fill(stream, 25)
        stream.commit()
        stream.close()
        tail = list(EventStream(tmp_path / "s").read(start_seq=18))
        assert [e["seq"] for e in tail] == list(range(18, 25))

    def test_reconcile_truncates_torn_tail(self, tmp_path):
        stream = EventStream(tmp_path / "s")
        fill(stream, 3)
        stream.commit()
        fill(stream, 2, start=3)  # lost: never committed
        stream.close()
        # Reopening for append truncates the tail, so new appends land
        # at the committed sequence — no gap, no duplicate.
        resumed = EventStream(tmp_path / "s")
        seq = resumed.append("dispatch", {"t": 3.0, "eid": 3})
        resumed.commit()
        resumed.close()
        assert seq == 3
        events = list(EventStream(tmp_path / "s").read())
        assert [e["seq"] for e in events] == [0, 1, 2, 3]

    def test_reconcile_removes_uncommitted_segment_files(self, tmp_path):
        stream = EventStream(tmp_path / "s", segment_events=2)
        fill(stream, 2)
        stream.commit()
        stream.close()
        stray = tmp_path / "s" / "segment-00000007.jsonl"
        stray.write_text('{"kind":"junk","seq":9,"v":2}\n')
        resumed = EventStream(tmp_path / "s", segment_events=2)
        resumed.append("dispatch", {"t": 2.0, "eid": 2})
        resumed.commit()
        resumed.close()
        assert not stray.exists()

    def test_complete_seals_the_stream(self, tmp_path):
        stream = EventStream(tmp_path / "s")
        fill(stream, 1)
        stream.commit(complete=True)
        stream.close()
        sealed = EventStream(tmp_path / "s")
        assert sealed.is_complete
        with pytest.raises(ValueError, match="complete"):
            sealed.append("dispatch", {"t": 1.0})

    def test_compact_preserves_logical_events(self, tmp_path):
        stream = EventStream(tmp_path / "s", segment_events=5)
        fill(stream, 23)
        stream.commit()
        before = list(stream.read())
        assert stream.compact() == (5, 1)
        after_stream = EventStream(tmp_path / "s")
        assert list(after_stream.read()) == before
        assert len(list(tmp_path.glob("s/segment-*.jsonl"))) == 1

    def test_export_matches_jsonl_tracer_bytes(self, tmp_path):
        # The same logical events through a JsonlTracer and through an
        # EventStream export produce byte-identical files.
        tracer_path = tmp_path / "trace.jsonl"
        with JsonlTracer(tracer_path) as tracer:
            tracer.emit("schedule", t=0.0, at=1.5)
            tracer.emit("dispatch", t=1.5, eid=0)
        stream = EventStream(tmp_path / "s")
        for event in read_trace(tracer_path):
            stream.append(
                event["kind"],
                {k: v for k, v in event.items()
                 if k not in ("seq", "kind")},
            )
        stream.commit()
        stream.close()
        export_path = tmp_path / "export.jsonl"
        assert stream.export(export_path) == 2
        assert export_path.read_bytes() == tracer_path.read_bytes()

    def test_metrics_counters(self, tmp_path):
        metrics = MetricsRegistry()
        stream = EventStream(
            tmp_path / "s", segment_events=2, metrics=metrics
        )
        fill(stream, 5)
        stream.commit()
        stream.close()
        counters = metrics.as_dict()["counters"]
        assert counters["store.events_appended"] == 5
        assert counters["store.segments_written"] == 3

    def test_v1_segment_lines_upcast_on_read(self, tmp_path):
        # Hand-write a v1-era segment (bare objects, no "v") and index.
        path = tmp_path / "s"
        path.mkdir()
        lines = [
            '{"kind":"schedule","seq":0,"t":0.0}',
            '{"kind":"dispatch","seq":1,"t":1.0}',
        ]
        segment = path / "segment-00000000.jsonl"
        segment.write_text("\n".join(lines) + "\n")
        (path / "index.json").write_text(json.dumps({
            "schema": 2,
            "segments": [{
                "file": segment.name,
                "events": 2,
                "bytes": segment.stat().st_size,
                "first_seq": 0,
            }],
            "committed": 2,
            "complete": False,
        }))
        metrics = MetricsRegistry()
        events = list(EventStream(path, metrics=metrics).read())
        assert [e["kind"] for e in events] == ["schedule", "dispatch"]
        counters = metrics.as_dict()["counters"]
        assert counters["store.upcasts_applied"] == 2


#: Ways an ``index.json`` can be torn: it no longer decodes to a JSON
#: object.
TORN_INDEXES = ["truncated", "emptied", "not-an-object", "not-utf8"]


def tear(index_path, damage):
    """Damage a commit index in place, as a torn write would leave it."""
    text = index_path.read_bytes()
    torn = {
        "truncated": text[: len(text) // 2],
        "emptied": b"",
        "not-an-object": b"[]\n",
        "not-utf8": b"\xff\xfe{",
    }[damage]
    index_path.write_bytes(torn)


class TestRunStore:
    KEY = {"run": 1, "timeout": 1.5, "seed": 42}

    def test_commit_and_load_result(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", self.KEY, {"met": 1.32})
        hit, value = store.load_result("table5", self.KEY)
        assert hit and value == {"met": 1.32}

    def test_incomplete_stream_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        stream = store.stream("table5", self.KEY)
        stream.append("dispatch", {"t": 0.0})
        stream.commit()  # committed but not complete
        stream.close()
        hit, _ = store.load_result("table5", self.KEY)
        assert not hit

    def test_missing_stream_is_a_miss(self, tmp_path):
        hit, _ = RunStore(tmp_path).load_result("table5", self.KEY)
        assert not hit

    def test_corrupt_snapshot_degrades_to_miss(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", self.KEY, {"met": 1.32})
        path = store.stream_path("table5", self.KEY)
        for segment in path.glob("segment-*.jsonl"):
            text = segment.read_text()
            marker = '"sha256":"'
            at = text.index(marker) + len(marker)
            # Flip one digest character in place: byte count (and so
            # the commit index) stays valid, only the sha256 is wrong.
            flipped = "0" if text[at] != "0" else "1"
            segment.write_text(text[:at] + flipped + text[at + 1:])
        hit, _ = store.load_result("table5", self.KEY)
        assert not hit

    @pytest.mark.parametrize("damage", TORN_INDEXES)
    def test_torn_index_degrades_to_miss(self, tmp_path, damage):
        store = RunStore(tmp_path)
        store.commit_result("table5", self.KEY, {"met": 1.32})
        path = store.stream_path("table5", self.KEY)
        tear(path / "index.json", damage)
        metrics = MetricsRegistry()
        reader = RunStore(tmp_path, metrics=metrics)
        assert reader.load_result("table5", self.KEY) == (False, None)
        assert metrics.as_dict()["counters"]["store.torn_index"] == 1
        # The re-run's commit rewrites the stream whole.
        reader.commit_result("table5", self.KEY, {"met": 2.5})
        assert RunStore(tmp_path).load_result("table5", self.KEY) == (
            True, {"met": 2.5},
        )
        assert [p.name for p in path.glob("segment-*.jsonl")] == [
            "segment-00000000.jsonl"
        ]

    @pytest.mark.parametrize("damage", TORN_INDEXES)
    def test_torn_group_index_degrades_to_miss(self, tmp_path, damage):
        store = RunStore(tmp_path)
        keys = [dict(self.KEY, timeout=t) for t in (1.5, 2.0, 3.0)]
        store.commit_group_results("table5", keys, ["a", "b", "c"])
        path = store.stream_path("table5", store.group_key("table5", keys))
        tear(path / "index.json", damage)
        metrics = MetricsRegistry()
        reader = RunStore(tmp_path, metrics=metrics)
        assert reader.load_group_results("table5", keys) == (False, None)
        assert metrics.as_dict()["counters"]["store.torn_index"] == 1
        reader.commit_group_results("table5", keys, ["x", "y", "z"])
        assert RunStore(tmp_path).load_group_results("table5", keys) == (
            True, ["x", "y", "z"],
        )

    def test_index_and_meta_bytes_are_json_dump_output(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", self.KEY, {"met": 1.32})
        path = store.stream_path("table5", self.KEY)
        for name in ("index.json", "meta.json"):
            written = (path / name).read_bytes()
            payload = json.loads(written)
            expected = io.StringIO()
            json.dump(payload, expected, sort_keys=True, indent=1)
            assert written == (expected.getvalue() + "\n").encode("utf-8")
            assert stat.S_IMODE((path / name).stat().st_mode) == 0o600
        assert list(path.glob("*.tmp")) == []

    def test_meta_records_the_key(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", self.KEY, 1)
        path = store.stream_path("table5", self.KEY)
        meta = store.meta(path)
        assert meta["experiment"] == "table5"
        assert meta["key"] == {"run": 1, "timeout": 1.5, "seed": 42}

    def test_commit_result_idempotent(self, tmp_path):
        store = RunStore(tmp_path)
        store.commit_result("table5", self.KEY, "first")
        store.commit_result("table5", self.KEY, "second")  # no-op
        hit, value = store.load_result("table5", self.KEY)
        assert hit and value == "first"

    def test_stream_key_has_no_version_salts(self):
        # Unlike cache keys, stream keys are not salted with cache/lint
        # versions: the log is versioned per event (envelope schema), so
        # a ruleset bump must not orphan committed cells.
        key = canonical_stream_key("table5", {"run": 1})
        payload = json.loads(key)
        assert set(payload) == {"experiment", "key"}

    def test_stream_paths_sorted_enumeration(self, tmp_path):
        store = RunStore(tmp_path)
        for run in range(3):
            store.commit_result("table5", {"run": run}, run)
        store.commit_result("table6", {"run": 0}, 0)
        assert store.experiments() == ["table5", "table6"]
        assert len(store.stream_paths("table5")) == 3
        assert len(store.stream_paths()) == 4
        paths = store.stream_paths()
        assert paths == sorted(paths)

    def test_import_trace_round_trips(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with JsonlTracer(trace, cell="c") as tracer:
            tracer.emit("schedule", t=0.0, at=1.0)
            tracer.emit("dispatch", t=1.0, eid=0)
        store = RunStore(tmp_path / "store")
        stream = store.import_trace(trace, "traces", {"file": "t.jsonl"})
        assert stream.is_complete
        exported = tmp_path / "back.jsonl"
        stream.export(exported)
        assert exported.read_bytes() == trace.read_bytes()

    def test_default_segment_size_is_sane(self):
        assert DEFAULT_SEGMENT_EVENTS >= 1024
