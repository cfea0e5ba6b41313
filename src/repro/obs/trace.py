"""Structured execution tracing (``repro.obs``).

A *trace* is an append-only sequence of structured events describing one
run of the event-driven stack: kernel activity (schedule / dispatch /
cancel / compact), per-demand middleware spans (fan-out, per-release
arrival, timeout, adjudication, delivery) and Bayesian-runner
checkpoints.  Traces serve two purposes:

* **post-mortem observability** — when a demand misbehaves (a vanished
  delivery, an unexpected fault) the trace is the per-request execution
  record the §4.3 monitoring story presupposes;
* **dynamic determinism checking** — two runs of the same cell must
  produce *bit-identical* traces regardless of ``--jobs``;
  :mod:`repro.obs.diff` localises the first diverging event when they do
  not.

Design rules that make the second purpose work:

* events carry **simulated** time only — never wall-clock reads;
* every field is derived from seeded computation (no process-global
  counters such as message ids may appear in traced fields);
* serialisation is canonical: one JSON object per line, keys sorted.

Serialized events are *versioned envelopes*
(:mod:`repro.obs.envelope`): the logical event plus a schema marker,
upcast on read — so a PR 3-era v1 trace file reads back as exactly the
logical events it always produced.

The disabled path is a single ``is None`` check at every instrumentation
site (components hold ``Optional[Tracer]``), so tracing costs nothing
when off.
"""

import io
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.obs.envelope import decode_event, encode_event


class Tracer:
    """Abstract sink for trace events.

    Subclasses set :attr:`enabled` and implement :meth:`emit`.  The base
    class is usable directly as a null tracer (drops everything), but
    instrumented components should prefer holding ``Optional[Tracer]``
    and skipping the call entirely when no tracer is attached.
    """

    #: Components may consult this to skip expensive field construction.
    enabled: bool = False

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event of *kind* with the given fields."""

    def close(self) -> None:
        """Flush and release any underlying resources."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Shared no-op tracer for call sites that want a non-None default.
NULL_TRACER = Tracer()


class MemoryTracer(Tracer):
    """Collect events in memory as dicts (tests, in-process analysis)."""

    enabled = True

    def __init__(self, cell: str = ""):
        self.cell = cell
        self.events: List[Dict[str, Any]] = []

    def emit(self, kind: str, **fields: Any) -> None:
        event: Dict[str, Any] = {"seq": len(self.events), "kind": kind}
        if self.cell:
            event["cell"] = self.cell
        event.update(fields)
        self.events.append(event)

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """The recorded events of one kind, in order."""
        return [event for event in self.events if event["kind"] == kind]


class JsonlTracer(Tracer):
    """Write events to a JSONL file, one canonical JSON object per line.

    Serialisation is canonical (sorted keys, compact separators) so that
    two runs emitting the same events produce byte-identical files —
    the contract :mod:`repro.obs.diff` checks.

    Parameters
    ----------
    path:
        Output file (created/truncated; parent directories are created).
    cell:
        Optional cell label stamped on every event, so per-cell traces
        stay attributable after :func:`merge_traces`.
    """

    enabled = True

    def __init__(self, path: Union[str, Path], cell: str = ""):
        self.path = Path(path)
        self.cell = cell
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[io.TextIOWrapper] = open(
            self.path, "w", encoding="utf-8"
        )
        self._seq = 0

    def emit(self, kind: str, **fields: Any) -> None:
        handle = self._handle
        if handle is None:
            raise ValueError(f"tracer for {self.path} is closed")
        event: Dict[str, Any] = {"seq": self._seq, "kind": kind}
        if self.cell:
            event["cell"] = self.cell
        event.update(fields)
        self._seq += 1
        handle.write(encode_event(event))
        handle.write("\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def read_trace(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Stream the logical events of a JSONL trace file, one at a time.

    A generator: one line is materialised per step, so reading a
    multi-gigabyte trace costs O(one event) of memory — the diff tool
    and every other consumer iterate instead of indexing.  Each line is
    decoded through the envelope upcaster chain
    (:mod:`repro.obs.envelope`), so v1 (PR 3) and current files yield
    identical logical event sequences for the same run.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from None
            if not isinstance(obj, dict):
                raise ValueError(
                    f"{path}:{line_number}: trace events must be objects"
                )
            try:
                event, _version = decode_event(obj)
            except ValueError as error:
                raise ValueError(
                    f"{path}:{line_number}: {error}"
                ) from None
            yield event


def merge_traces(
    parts: Iterable[Union[str, Path]], output: Union[str, Path]
) -> int:
    """Concatenate per-cell trace files into one trace, in given order.

    The caller supplies *parts* in a deterministic order (e.g. sorted
    cell file names); the merged file is then reproducible whenever the
    parts are.  Returns the number of event lines written.
    """
    output = Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    lines = 0
    with open(output, "w", encoding="utf-8") as merged:
        for part in parts:
            with open(part, "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        merged.write(line if line.endswith("\n") else line + "\n")
                        lines += 1
    return lines
