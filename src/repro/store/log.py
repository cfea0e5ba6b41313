"""Append-only segmented event log (``repro.store``).

The run store treats every ``(experiment, cell key)`` pair as one
*stream*: an append-only sequence of versioned event envelopes
(:mod:`repro.store.envelope`) spread over bounded JSONL *segment*
files, fronted by a commit/offset index.  Layout::

    <root>/<experiment>/<digest-of-key>/
        meta.json            # the full cell key, for humans and `project`
        segment-00000000.jsonl
        segment-00000001.jsonl
        index.json           # committed segments: events, bytes, first_seq
        projections/         # checkpointed projection positions

Durability contract:

* **append** buffers into the active segment file;
* **commit** flushes and atomically rewrites ``index.json`` (temp file
  + rename) recording the committed event count *and byte offset* of
  every segment — readers only ever see committed events, so a torn
  write past the last commit is invisible;
* reopening a stream for append first *reconciles*: any uncommitted
  tail beyond the index's byte offset is truncated away, restoring the
  exact committed prefix.  Interrupting a run therefore loses at most
  the in-flight cell, never a committed one — the property resumable
  grids are built on.

Streams are per-cell, so parallel workers never contend for a file;
the parent process commits results, workers (optionally) append trace
events to their own stream.
"""

import hashlib
import json
import os
from pathlib import Path
from typing import (
    Any,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.obs.envelope import (
    SCHEMA_VERSION,
    decode_line,
    encode_event,
)
from repro.obs.metrics import MetricsRegistry
from repro.store.snapshot import (
    CELL_RESULT_KIND,
    KEY_ENCODER,
    result_event_fields,
    result_from_event,
    write_atomic,
)

#: Events per segment before the appender rotates to a new file.  Small
#: enough that a reader's working set (one segment) stays modest, large
#: enough that a 10^4-event cell trace lands in a handful of files.
DEFAULT_SEGMENT_EVENTS = 4096

_INDEX_FILE = "index.json"
_META_FILE = "meta.json"
_SEGMENT_PREFIX = "segment-"


def _segment_name(number: int) -> str:
    return f"{_SEGMENT_PREFIX}{number:08d}.jsonl"


#: Encoder of ``index.json`` and ``meta.json``: the one ``json.dump(...,
#: sort_keys=True, indent=1)`` constructs on every call, built once, so
#: the bytes are that call's.
_JSON_ENCODER = json.JSONEncoder(sort_keys=True, indent=1)


def _atomic_write_json(
    path: Path, payload: Dict[str, Any], fsync: bool = False
) -> None:
    write_atomic(
        os.fspath(path),
        (_JSON_ENCODER.encode(payload) + "\n").encode("utf-8"),
        fsync=fsync,
    )


class EventStream:
    """One append-only stream of versioned events with a commit index.

    Pass a :class:`~repro.obs.metrics.MetricsRegistry` to count appended
    events (``store.events_appended``), finalized segment files
    (``store.segments_written``) and v1-era upcasts applied while
    reading (``store.upcasts_applied``).
    """

    def __init__(
        self,
        path: Union[str, Path],
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if segment_events <= 0:
            raise ValueError(
                f"segment_events must be > 0: {segment_events!r}"
            )
        self.path = Path(path)
        self.segment_events = int(segment_events)
        self.metrics = metrics
        self._handle: Optional[IO[str]] = None
        #: Segments already covered by the last commit, plus the live
        #: tail of the active segment: [{file, events, bytes, first_seq}].
        self._index = self._load_index()
        #: Events appended but not yet committed (live only in the
        #: active segment file beyond its committed byte offset).
        self._pending = 0
        self._reconciled = False

    # -- index ----------------------------------------------------------

    def _load_index(self) -> Dict[str, Any]:
        """The commit index, or an empty uncommitted one if none.

        A torn ``index.json`` — one that does not decode to a JSON
        object — also reads as empty and uncommitted, counted under
        ``store.torn_index``: its cell re-runs, and that commit
        rewrites the stream (:meth:`_reconcile` removes the segments
        the empty index does not list).
        """
        try:
            with open(self.path / _INDEX_FILE, "rb") as handle:
                raw: Optional[bytes] = handle.read()
        except FileNotFoundError:
            raw = None
        if raw is not None:
            try:
                index = json.loads(raw)
            except ValueError:  # undecodable bytes or malformed JSON
                index = None
            if isinstance(index, dict):
                return index
            self._count("store.torn_index")
        return {
            "schema": SCHEMA_VERSION,
            "segments": [],
            "committed": 0,
            "complete": False,
        }

    @property
    def committed_events(self) -> int:
        """Events visible to readers (appends before the last commit)."""
        return int(self._index["committed"])

    @property
    def is_complete(self) -> bool:
        """Whether the stream was committed as finished."""
        return bool(self._index["complete"])

    @property
    def next_seq(self) -> int:
        return self.committed_events + self._pending

    def segments(self) -> List[Dict[str, Any]]:
        """The committed segment descriptors, in stream order."""
        return [dict(entry) for entry in self._index["segments"]]

    def exists(self) -> bool:
        return (self.path / _INDEX_FILE).exists()

    # -- append path ----------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _reconcile(self) -> None:
        """Truncate uncommitted tails so appends resume at the index.

        Only the *last* committed segment can carry a torn tail (the
        appender writes one segment at a time); later segment files
        that never reached a commit are removed outright.
        """
        if self._reconciled:
            return
        self._reconciled = True
        segments = self._index["segments"]
        known = {entry["file"] for entry in segments}
        if self.path.exists():
            for stray in sorted(self.path.glob(f"{_SEGMENT_PREFIX}*.jsonl")):
                if stray.name not in known:
                    stray.unlink()
        if segments:
            last = segments[-1]
            last_path = self.path / last["file"]
            if last_path.exists() and last_path.stat().st_size > last["bytes"]:
                with open(last_path, "r+b") as handle:
                    handle.truncate(last["bytes"])

    def _open_segment(self) -> IO[str]:
        segments = self._index["segments"]
        if (
            segments
            and segments[-1]["events"] + self._pending_in_active()
            < self.segment_events
        ):
            name = segments[-1]["file"]
        else:
            name = _segment_name(len(segments))
            segments.append(
                {
                    "file": name,
                    "events": 0,
                    "bytes": 0,
                    "first_seq": self.next_seq,
                }
            )
            self._count("store.segments_written")
        self.path.mkdir(parents=True, exist_ok=True)
        return open(self.path / name, "a", encoding="utf-8")

    def _pending_in_active(self) -> int:
        # All pending events live in the active (last) segment: rotation
        # commits first (see append), so _pending never spans segments.
        return self._pending

    def append(self, kind: str, fields: Mapping[str, Any]) -> int:
        """Append one event; returns its sequence number.

        Appends are buffered; call :meth:`commit` to make them visible
        to readers (and durable across a reopen).
        """
        if self.is_complete:
            raise ValueError(
                f"stream {self.path} is complete; appends are closed"
            )
        self._reconcile()
        segments = self._index["segments"]
        if self._handle is not None and segments and (
            segments[-1]["events"] + self._pending >= self.segment_events
        ):
            # Rotate: committing first keeps every pending event inside
            # one (the active) segment, which is what lets commit update
            # a single descriptor.
            self.commit()
            self._handle.close()
            self._handle = None
        if self._handle is None:
            self._handle = self._open_segment()
        seq = self.next_seq
        event = {"seq": seq, "kind": kind}
        event.update(fields)
        self._handle.write(encode_event(event))
        self._handle.write("\n")
        self._pending += 1
        self._count("store.events_appended")
        return seq

    def append_batch(
        self, events: List[Tuple[str, Mapping[str, Any]]]
    ) -> int:
        """Append a batch of ``(kind, fields)`` events in one pass.

        Semantically identical to calling :meth:`append` per event —
        same sequence numbers, same rotation points (committing first,
        so pending events never span segments) — but the encoded lines
        are written in per-segment slabs, amortising the write-call and
        bookkeeping cost across the batch (``store.batch_appends``
        counts calls).  Returns the number of events appended; like
        :meth:`append`, nothing is visible to readers until
        :meth:`commit`.
        """
        if self.is_complete:
            raise ValueError(
                f"stream {self.path} is complete; appends are closed"
            )
        self._reconcile()
        first = self.next_seq
        encoded: List[str] = []
        for offset, (kind, fields) in enumerate(events):
            event = {"seq": first + offset, "kind": kind}
            event.update(fields)
            encoded.append(encode_event(event) + "\n")
        total = len(encoded)
        if not total:
            return 0
        cursor = 0
        while cursor < total:
            segments = self._index["segments"]
            if self._handle is not None and segments and (
                segments[-1]["events"] + self._pending
                >= self.segment_events
            ):
                self.commit()
                self._handle.close()
                self._handle = None
            if self._handle is None:
                self._handle = self._open_segment()
            segments = self._index["segments"]
            room = self.segment_events - (
                segments[-1]["events"] + self._pending
            )
            take = min(room, total - cursor)
            self._handle.write("".join(encoded[cursor:cursor + take]))
            self._pending += take
            cursor += take
        self._count("store.events_appended", total)
        self._count("store.batch_appends")
        return total

    def commit(self, complete: bool = False, fsync: bool = False) -> None:
        """Publish all pending appends (atomic index rewrite).

        ``complete=True`` seals the stream: readers see it as finished
        and further appends raise.  ``fsync=True`` forces the segment
        data and the index to disk before the commit is reported — the
        batched group commit pays one fsync per *chunk* of cells, where
        the per-cell path relies on the OS flushing each tiny stream.
        """
        if self._handle is not None:
            self._handle.flush()
            if fsync:
                os.fsync(self._handle.fileno())
        segments = self._index["segments"]
        if self._pending:
            last = segments[-1]
            last["events"] += self._pending
            last["bytes"] = (self.path / last["file"]).stat().st_size
            self._index["committed"] += self._pending
            self._pending = 0
        if complete:
            self._index["complete"] = True
        _atomic_write_json(
            self.path / _INDEX_FILE, self._index, fsync=fsync
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- read path ------------------------------------------------------

    def read(self, start_seq: int = 0) -> Iterator[Dict[str, Any]]:
        """Stream the committed logical events from ``start_seq`` on.

        One segment line is materialised at a time — peak memory is
        O(segment line), never O(stream) — and every line passes
        through the upcaster chain, so v1-era segments read back in
        current logical form (``store.upcasts_applied`` counts them).
        """
        for entry in self._index["segments"]:
            first = int(entry["first_seq"])
            events = int(entry["events"])
            if events == 0 or first + events <= start_seq:
                continue
            with open(
                self.path / entry["file"], "r", encoding="utf-8"
            ) as handle:
                consumed = 0
                for line in handle:
                    if consumed >= events:
                        break  # uncommitted tail
                    line = line.strip()
                    if not line:
                        continue
                    seq = first + consumed
                    consumed += 1
                    if seq < start_seq:
                        continue
                    event, version = decode_line(line)
                    if version < SCHEMA_VERSION:
                        self._count("store.upcasts_applied")
                    yield event

    def result(self) -> Tuple[bool, Any]:
        """The committed cell result, if the stream carries one.

        Scans backwards segment by segment — the ``cell_result`` event
        is by construction the last committed one.
        """
        for entry in reversed(self._index["segments"]):
            first = int(entry["first_seq"])
            events = int(entry["events"])
            if events == 0:
                continue
            found = None
            for event in self.read(start_seq=first):
                if event["kind"] == CELL_RESULT_KIND:
                    found = event
            if found is not None:
                return True, result_from_event(found)
            return False, None
        return False, None

    # -- maintenance ----------------------------------------------------

    def compact(self) -> Tuple[int, int]:
        """Merge the committed segments into one; returns
        ``(segments_before, segments_after)``.

        Events are re-encoded through the current envelope (upcasting
        v1-era lines in place); logical content is unchanged.  The
        index is rewritten last, so a crash mid-compaction leaves the
        old index pointing at the old (still present) segments.
        """
        self.close()
        old = [entry["file"] for entry in self._index["segments"]]
        if len(old) <= 1:
            return len(old), len(old)
        merged_name = _segment_name(0) + ".compact"
        merged_path = self.path / merged_name
        events = 0
        with open(merged_path, "w", encoding="utf-8") as handle:
            for event in self.read():
                handle.write(encode_event(event))
                handle.write("\n")
                events += 1
        final_name = _segment_name(0)
        replaced = self.path / final_name
        os.replace(merged_path, replaced)
        self._index["segments"] = [
            {
                "file": final_name,
                "events": events,
                "bytes": replaced.stat().st_size,
                "first_seq": 0,
            }
        ]
        self._index["committed"] = events
        _atomic_write_json(self.path / _INDEX_FILE, self._index)
        self._count("store.segments_written")
        for name in old:
            if name != final_name:
                try:
                    (self.path / name).unlink()
                except OSError:
                    pass
        return len(old), 1

    def export(self, output: Union[str, Path]) -> int:
        """Write the stream back out as one canonical JSONL trace file.

        Every line is a current-version envelope, so exporting the same
        logical events always produces the same bytes — the merged-
        trace determinism property, extended to the log path.
        """
        output = Path(output)
        output.parent.mkdir(parents=True, exist_ok=True)
        count = 0
        with open(output, "w", encoding="utf-8") as handle:
            for event in self.read():
                handle.write(encode_event(event))
                handle.write("\n")
                count += 1
        return count

    def __repr__(self) -> str:
        return (
            f"EventStream({str(self.path)!r}, "
            f"committed={self.committed_events}, "
            f"complete={self.is_complete})"
        )


def canonical_stream_key(experiment: str, key: Mapping[str, Any]) -> str:
    """Stable serialisation of a stream identity.

    Mirrors the result cache's canonicalisation (sorted-key JSON) minus
    the cache/lint version salts: the log is append-only and versioned
    per *event* (the envelope schema), so a ruleset bump must not
    orphan committed cells — resume correctness is re-established by
    the store's own schema versioning and the upcaster chain.
    """
    payload = {"experiment": experiment, "key": dict(key)}
    return KEY_ENCODER.encode(payload)


class RunStore:
    """Event-sourced store of experiment runs: one stream per cell.

    The store is keyed exactly like the result cache —
    ``(experiment, cell key)``, the key carrying the seed — so every
    projection and resume decision shares the cache's aliasing
    guarantees (and the REPRO201 completeness rule covers both).
    """

    def __init__(
        self,
        root: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
    ):
        self.root = Path(root)
        self.metrics = metrics
        self.segment_events = int(segment_events)

    def _digest(self, experiment: str, key: Mapping[str, Any]) -> str:
        return hashlib.sha256(
            canonical_stream_key(experiment, key).encode("utf-8")
        ).hexdigest()

    def stream_path(self, experiment: str, key: Mapping[str, Any]) -> Path:
        return self.root / experiment / self._digest(experiment, key)

    def stream(
        self, experiment: str, key: Mapping[str, Any]
    ) -> EventStream:
        """The (possibly new) stream for one cell; writes ``meta.json``
        on first use so humans and ``repro store project`` can map a
        digest back to its key."""
        path = self.stream_path(experiment, key)
        stream = EventStream(
            path,
            segment_events=self.segment_events,
            metrics=self.metrics,
        )
        meta_path = path / _META_FILE
        if not meta_path.exists():
            _atomic_write_json(
                meta_path,
                {
                    "experiment": experiment,
                    "key": {
                        name: _json_safe(key[name]) for name in sorted(key)
                    },
                    "schema": SCHEMA_VERSION,
                },
            )
        return stream

    # -- cell results (the resume path) ---------------------------------

    def load_result(
        self, experiment: str, key: Mapping[str, Any]
    ) -> Tuple[bool, Any]:
        """Fetch a committed cell result; ``(hit, value)``."""
        path = self.stream_path(experiment, key)
        if not (path / _INDEX_FILE).exists():
            return False, None
        stream = EventStream(path, metrics=self.metrics)
        if not stream.is_complete:
            return False, None
        try:
            return stream.result()
        except Exception:
            # A corrupt snapshot must degrade to a re-run, never poison
            # the grid (mirrors the cache's corrupt-entry policy).
            return False, None

    def commit_result(
        self, experiment: str, key: Mapping[str, Any], value: Any
    ) -> None:
        """Append the cell's result snapshot and seal the stream."""
        stream = self.stream(experiment, key)
        if stream.is_complete:
            return
        with stream:
            stream.append(CELL_RESULT_KIND, result_event_fields(value))
            stream.commit(complete=True)

    # -- group results (the batched-commit path) -------------------------

    def group_key(
        self,
        experiment: str,
        keys: List[Optional[Mapping[str, Any]]],
    ) -> Dict[str, str]:
        """Stream key of a batched group: a digest over its member keys.

        Chunk membership is deterministic (grid order, fixed chunk
        size), so an interrupted run re-derives the same digest on
        resume and finds its committed chunks.
        """
        return _group_digest(_canonical_keys(experiment, keys))

    def commit_group_results(
        self,
        experiment: str,
        keys: List[Optional[Mapping[str, Any]]],
        values: List[Any],
    ) -> None:
        """Commit a whole group of cell results as one sealed stream.

        One ``cell_result`` event per member (each carrying its cell's
        canonical key, so the group stream can serve per-cell lookups),
        batch-appended and sealed with a single *fsync'd* commit — the
        amortised durability write of the batched grid path
        (``store.batch_commits`` counts chunks).  The group stream's
        ``meta.json`` records the member count under ``"cells"`` so
        stream counting tools can weigh it correctly.
        """
        cells = _canonical_keys(experiment, keys)
        gkey = _group_digest(cells)
        path = self.stream_path(experiment, gkey)
        stream = EventStream(
            path,
            segment_events=self.segment_events,
            metrics=self.metrics,
        )
        if stream.is_complete:
            return
        meta_path = path / _META_FILE
        if not meta_path.exists():
            _atomic_write_json(
                meta_path,
                {
                    "experiment": experiment,
                    "key": dict(gkey),
                    "cells": len(values),
                    "schema": SCHEMA_VERSION,
                },
            )
        events: List[Tuple[str, Mapping[str, Any]]] = []
        for cell, value in zip(cells, values):
            fields = dict(result_event_fields(value))
            if cell is not None:
                fields["cell"] = cell
            events.append((CELL_RESULT_KIND, fields))
        with stream:
            stream.append_batch(events)
            stream.commit(complete=True, fsync=True)
        if self.metrics is not None:
            self.metrics.counter("store.batch_commits").inc()

    def load_group_results(
        self,
        experiment: str,
        keys: List[Optional[Mapping[str, Any]]],
    ) -> Tuple[bool, Optional[List[Any]]]:
        """Fetch a committed group's results; ``(hit, values)``.

        A hit requires the group stream to be sealed *and* to cover
        every requested member key; anything less (or a corrupt
        snapshot) degrades to a miss and a re-run, mirroring
        :meth:`load_result`.
        """
        cells = _canonical_keys(experiment, keys)
        path = self.stream_path(experiment, _group_digest(cells))
        if not (path / _INDEX_FILE).exists():
            return False, None
        stream = EventStream(path, metrics=self.metrics)
        if not stream.is_complete:
            return False, None
        try:
            by_cell: Dict[str, Any] = {}
            for event in stream.read():
                if event["kind"] == CELL_RESULT_KIND and "cell" in event:
                    by_cell[event["cell"]] = result_from_event(event)
            values: List[Any] = []
            for cell in cells:
                if cell is None or cell not in by_cell:
                    return False, None
                values.append(by_cell[cell])
            return True, values
        except Exception:
            return False, None

    # -- enumeration ----------------------------------------------------

    def experiments(self) -> List[str]:
        if not self.root.exists():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir()
        )

    def stream_paths(self, experiment: Optional[str] = None) -> List[Path]:
        """Every stream directory (sorted), optionally per experiment."""
        names = (
            [experiment] if experiment is not None else self.experiments()
        )
        paths: List[Path] = []
        for name in names:
            base = self.root / name
            if not base.is_dir():
                continue
            paths.extend(
                sorted(
                    entry
                    for entry in base.iterdir()
                    if (entry / _INDEX_FILE).exists()
                )
            )
        return paths

    def open(self, path: Union[str, Path]) -> EventStream:
        """An existing stream by directory path."""
        return EventStream(
            Path(path),
            segment_events=self.segment_events,
            metrics=self.metrics,
        )

    def meta(self, path: Union[str, Path]) -> Dict[str, Any]:
        meta_path = Path(path) / _META_FILE
        if not meta_path.exists():
            return {}
        with open(meta_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # -- trace import (the log path for merged traces) ------------------

    def import_trace(
        self,
        trace_path: Union[str, Path],
        experiment: str,
        key: Mapping[str, Any],
    ) -> EventStream:
        """Feed a JSONL trace file into a stream (v1 or v2 lines).

        Events pass through the upcaster chain on the way in, so a
        PR 3-era trace lands in the log in current logical form.
        Returns the sealed stream.
        """
        from repro.obs.trace import read_trace

        stream = self.stream(experiment, key)
        if stream.is_complete:
            return stream
        with stream:
            for event in read_trace(trace_path):
                fields = {
                    name: value
                    for name, value in event.items()
                    if name not in ("seq", "kind")
                }
                stream.append(event["kind"], fields)
            stream.commit(complete=True)
        return stream

    def compact(self, experiment: Optional[str] = None) -> Tuple[int, int]:
        """Compact every stream; returns total ``(before, after)``."""
        before = after = 0
        for path in self.stream_paths(experiment):
            b, a = self.open(path).compact()
            before += b
            after += a
        return before, after

    def __repr__(self) -> str:
        return f"RunStore(root={str(self.root)!r})"


def _canonical_keys(
    experiment: str, keys: List[Optional[Mapping[str, Any]]]
) -> List[Optional[str]]:
    """Each member's canonical stream key (``None`` stays ``None``)."""
    return [
        None if key is None else canonical_stream_key(experiment, key)
        for key in keys
    ]


def _group_digest(cells: Iterable[Optional[str]]) -> Dict[str, str]:
    """The group stream key over its keyed members' canonical keys."""
    joined = "\n".join(cell for cell in cells if cell is not None)
    return {"cells": hashlib.sha256(joined.encode("utf-8")).hexdigest()}


def _json_safe(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except TypeError:
        return repr(value)
