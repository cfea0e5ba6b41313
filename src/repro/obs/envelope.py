"""Versioned event envelopes and the upcaster chain (``repro.obs``).

Every event that reaches a JSONL trace file — written by
:class:`~repro.obs.trace.JsonlTracer` or merged by
:func:`~repro.obs.trace.merge_traces` — is wrapped in an *envelope*:
the event's own fields plus a schema-version marker (``"v"``).  Readers
never hand envelopes to consumers directly; they decode each line to
the *logical event* (the version-free dict the PR 3 trace layer always
exposed) by running it through the upcaster chain:

* **v1** (PR 3) — bare JSON objects, no ``"v"`` key.  The logical
  layout of every kind (``schedule`` / ``dispatch`` / ``demand`` /
  ``checkpoint`` / ...) is unchanged since, so the v1 upcast certifies
  the payload and passes it through untouched — a v1 trace reads back
  *losslessly*, byte-for-byte equal in logical form to what
  :mod:`repro.obs.diff` compared before the envelope existed.
* **v2** (current) — the same logical payload plus ``"v": 2``.

Adding a schema version means appending one entry to :data:`UPCASTERS`
(a pure function ``event -> event`` lifting version *n* payloads to
version *n + 1*) and bumping :data:`SCHEMA_VERSION`; old traces then
read forward through the chain without rewriting any file.

Serialisation is canonical (sorted keys, compact separators), so two
runs emitting the same logical events produce byte-identical envelope
lines — the property every determinism diff and merged-trace check in
this repository rests on.
"""

import json
from typing import Any, Callable, Dict, Mapping, Tuple

#: Current envelope schema version.  Bump together with a new entry in
#: :data:`UPCASTERS` whenever the logical event layout changes.
SCHEMA_VERSION = 2

#: The envelope field carrying the schema version.  Absent on v1 lines
#: (PR 3 traces predate the marker), mandatory from v2 on.  No logical
#: event field may use this name.
VERSION_FIELD = "v"


def _upcast_v1_to_v2(event: Dict[str, Any]) -> Dict[str, Any]:
    """v1 -> v2: the logical payload is unchanged.

    v2 introduced the envelope marker only; every v1 kind kept its
    field layout.  The upcast therefore passes the payload through —
    which is exactly what makes PR 3 traces read back losslessly.
    """
    return event


#: Upcaster chain: ``UPCASTERS[n]`` lifts a version-*n* logical payload
#: to version *n + 1*.  Decoding a version-*k* line applies
#: ``UPCASTERS[k] .. UPCASTERS[SCHEMA_VERSION - 1]`` in order.
UPCASTERS: Dict[int, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    1: _upcast_v1_to_v2,
}


def encode_event(event: Mapping[str, Any]) -> str:
    """Wrap a logical event in a current-version envelope line.

    Canonical JSON (sorted keys, compact separators), no trailing
    newline.  Rejects events that would collide with the envelope's
    version field.
    """
    if VERSION_FIELD in event:
        raise ValueError(
            f"logical events must not carry the envelope version field "
            f"{VERSION_FIELD!r}: {dict(event)!r}"
        )
    envelope = dict(event)
    envelope[VERSION_FIELD] = SCHEMA_VERSION
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"))


def decode_event(obj: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
    """Unwrap one parsed envelope object to ``(logical event, version)``.

    The returned version is the *stored* one (before upcasting); the
    caller can count ``version < SCHEMA_VERSION`` as an applied upcast.
    Unknown future versions are an error: an old reader cannot know
    what a newer schema changed.
    """
    version = obj.pop(VERSION_FIELD, 1)
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"bad envelope version marker: {version!r}")
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"event has schema version {version}, newer than this "
            f"reader's {SCHEMA_VERSION}; upgrade repro to read it"
        )
    event = obj
    for step in range(version, SCHEMA_VERSION):
        try:
            upcaster = UPCASTERS[step]
        except KeyError:
            raise ValueError(
                f"no upcaster registered for schema version {step}"
            ) from None
        event = upcaster(event)
    return event, version
