"""Trace diff: localise the first diverging event between two runs.

``repro.lint`` checks the determinism contract *statically*;
``python -m repro.obs.diff`` completes it *dynamically*: record a trace
of the same experiment twice (e.g. ``--jobs 1`` vs ``--jobs 4``) and the
diff either certifies the traces identical or pinpoints the first event
where the two executions took different paths — the place to start
debugging, rather than a mismatched table cell thousands of events
later.

The comparison is a *streaming first-divergence scan* over two event
sequences: both sides are consumed one event at a time (a bounded ring
buffer holds the shared context for the report), so peak memory is
O(one trace line), never O(file) — diffing two multi-gigabyte traces
costs the same few kilobytes.  Inputs are JSONL trace files (v1 or
current envelopes; the upcaster chain normalises both).

Usage::

    python -m repro.obs.diff A.jsonl B.jsonl [--context N]
                             [--ignore-field NAME ...]

Exit status: 0 when the traces are identical, 1 on divergence (or a
length mismatch), 2 on unreadable input.
"""

import argparse
import json
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.trace import read_trace

#: Sentinel distinguishing "field absent" from "field is None".
_MISSING = object()

#: Shared events retained for the divergence report (ring buffer).
CONTEXT_BUFFER = 8


@dataclass(frozen=True)
class TraceDiff:
    """Outcome of comparing two traces event by event.

    ``divergence_index`` is the position of the first differing event
    (``None`` when the traces are identical); when one trace is a strict
    prefix of the other, it is the length of the shorter one and the
    missing side's event is ``None``.  ``context_events`` holds up to
    :data:`CONTEXT_BUFFER` shared events preceding the divergence (the
    streaming comparator cannot seek back, so it carries them forward).
    """

    events_a: int
    events_b: int
    divergence_index: Optional[int] = None
    event_a: Optional[Dict[str, Any]] = None
    event_b: Optional[Dict[str, Any]] = None
    differing_fields: Tuple[str, ...] = field(default_factory=tuple)
    context_events: Tuple[Dict[str, Any], ...] = field(
        default_factory=tuple
    )

    @property
    def identical(self) -> bool:
        return self.divergence_index is None


def _normalise(
    event: Dict[str, Any], ignore: Sequence[str]
) -> Dict[str, Any]:
    if not ignore:
        return event
    return {key: event[key] for key in event if key not in ignore}


def _drain(iterator: Iterator[Dict[str, Any]]) -> int:
    """Exhaust an event iterator, counting (O(1) memory)."""
    return sum(1 for _ in iterator)


def diff_traces(
    events_a: Iterable[Dict[str, Any]],
    events_b: Iterable[Dict[str, Any]],
    ignore_fields: Sequence[str] = (),
) -> TraceDiff:
    """Streaming comparison of two event sequences.

    Accepts any iterables (lists, generators such as
    :func:`~repro.obs.trace.read_trace`); consumes both exactly once.
    Event totals in the result are exact — after a divergence the
    remainders are drained *counted but not retained*, so memory stays
    bounded by one event per side plus the context ring.
    """
    it_a = iter(events_a)
    it_b = iter(events_b)
    recent: "deque[Dict[str, Any]]" = deque(maxlen=CONTEXT_BUFFER)
    index = 0
    while True:
        a = next(it_a, _MISSING)
        b = next(it_b, _MISSING)
        if a is _MISSING and b is _MISSING:
            return TraceDiff(events_a=index, events_b=index)
        if a is _MISSING or b is _MISSING:
            count_a = index + (0 if a is _MISSING else 1 + _drain(it_a))
            count_b = index + (0 if b is _MISSING else 1 + _drain(it_b))
            present = b if a is _MISSING else a
            return TraceDiff(
                events_a=count_a,
                events_b=count_b,
                divergence_index=index,
                event_a=None if a is _MISSING else a,
                event_b=None if b is _MISSING else b,
                differing_fields=tuple(sorted(present)),
                context_events=tuple(recent),
            )
        na = _normalise(a, ignore_fields)
        nb = _normalise(b, ignore_fields)
        if na != nb:
            differing = tuple(sorted(
                key
                for key in set(na) | set(nb)
                if na.get(key, _MISSING) != nb.get(key, _MISSING)
            ))
            return TraceDiff(
                events_a=index + 1 + _drain(it_a),
                events_b=index + 1 + _drain(it_b),
                divergence_index=index,
                event_a=a,
                event_b=b,
                differing_fields=differing,
                context_events=tuple(recent),
            )
        recent.append(a)
        index += 1


def _render_event(event: Optional[Dict[str, Any]]) -> str:
    if event is None:
        return "<no event — trace ended>"
    return json.dumps(event, sort_keys=True)


def render_diff(
    diff: TraceDiff,
    name_a: str,
    name_b: str,
    context: int = 0,
) -> str:
    """Human-readable report of a :class:`TraceDiff`."""
    if diff.identical:
        return (
            f"traces identical: {diff.events_a} events\n"
            f"  A: {name_a}\n  B: {name_b}"
        )
    index = diff.divergence_index
    lines = [
        f"traces diverge at event #{index} "
        f"(A has {diff.events_a} events, B has {diff.events_b})",
        f"  A: {name_a}\n  B: {name_b}",
    ]
    if diff.differing_fields:
        lines.append(
            "differing fields: " + ", ".join(diff.differing_fields)
        )
    if context and diff.context_events and index is not None:
        shown = list(diff.context_events)[-context:]
        start = index - len(shown)
        if shown:
            lines.append(f"shared context (events #{start}..#{index - 1}):")
            for event in shown:
                lines.append(f"  = {_render_event(event)}")
    lines.append(f"  A#{index}: {_render_event(diff.event_a)}")
    lines.append(f"  B#{index}: {_render_event(diff.event_b)}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.diff",
        description=(
            "Compare two repro.obs JSONL traces and localise the first "
            "diverging event (dynamic determinism check)."
        ),
    )
    parser.add_argument("trace_a", help="first trace (JSONL file)")
    parser.add_argument("trace_b", help="second trace (JSONL file)")
    parser.add_argument(
        "--context", type=int, default=3,
        help="shared events to print before the divergence (default 3)",
    )
    parser.add_argument(
        "--ignore-field", action="append", default=[], metavar="NAME",
        help="event field to ignore when comparing (repeatable)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the report; communicate via exit status only",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The readers are generators, so IO errors surface while the
        # diff consumes them — the whole comparison sits in the guard.
        diff = diff_traces(
            read_trace(args.trace_a),
            read_trace(args.trace_b),
            args.ignore_field,
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(render_diff(diff, args.trace_a, args.trace_b,
                          context=args.context))
    return 0 if diff.identical else 1


if __name__ == "__main__":
    sys.exit(main())
