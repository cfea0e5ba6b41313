"""Canonical byte encoding of cell results (``repro.store``).

A completed cell's reduced result exists in two durable places: the
on-disk result cache (:mod:`repro.runtime.cache`) and, under a run
store, the result record of the cell's stream file.  Both sides encode
through *this* module, so a cache hit and a store hit materialise
**the same bytes** — the property ``tests/store/test_log.py`` pins, and
the reason a store hit can re-warm the cache without a bit of drift.

The encoding is the cache's historical one (pickle at the highest
protocol), so PR 1-era cache entries stay readable.

Cell *keys* have one canonical form too: :data:`KEY_ENCODER`, the
sorted-key JSON both the cache's content addresses and the store's
stream identities are hashed from.  Both places also write through one
function, :func:`write_atomic`.
"""

import base64
import hashlib
import json
import os
import pickle
import tempfile
from typing import Any, Dict

#: Canonical JSON of cell keys: sorted keys, ``repr`` for anything JSON
#: cannot encode.  It is the encoder ``json.dumps(payload,
#: sort_keys=True, default=repr)`` constructs on every call, built once,
#: so its output is byte-identical to that call's.
KEY_ENCODER = json.JSONEncoder(sort_keys=True, default=repr)


def write_atomic(path: str, data: bytes, fsync: bool = False) -> None:
    """Write *data* to *path* whole or not at all (temp file + rename).

    The temp file comes from ``mkstemp`` beside *path*, so it and the
    renamed file have mode 0600; the folder is created only when
    ``mkstemp`` finds none.  The bytes go out in one ``os.write`` (a
    short write continues where it stopped), and ``fsync=True`` forces
    them to disk before the rename.
    """
    folder = os.path.dirname(path)
    try:
        fd, temp_name = tempfile.mkstemp(dir=folder, suffix=".tmp")
    except FileNotFoundError:
        os.makedirs(folder, exist_ok=True)
        fd, temp_name = tempfile.mkstemp(dir=folder, suffix=".tmp")
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def encode_result(value: Any) -> bytes:
    """The canonical byte form of a cell result."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(blob: bytes) -> Any:
    """Inverse of :func:`encode_result`."""
    return pickle.loads(blob)


def result_record(value: Any) -> Dict[str, Any]:
    """The stored record of one reduced result.

    The snapshot bytes ride base64-encoded (stream files are JSON);
    ``sha256`` lets readers verify the blob before unpickling.
    """
    blob = encode_result(value)
    return {
        "result": base64.b64encode(blob).decode("ascii"),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "bytes": len(blob),
    }


def result_from_record(record: Dict[str, Any]) -> Any:
    """Decode a stored record back to the result object.

    The blob is checked against the record's ``sha256`` before it is
    unpickled: a mismatch raises ``ValueError``, and a record without
    a digest raises ``KeyError``.
    """
    blob = base64.b64decode(record["result"])
    digest = hashlib.sha256(blob).hexdigest()
    if digest != record["sha256"]:
        raise ValueError(
            f"result record corrupt: sha256 {digest} != {record['sha256']}"
        )
    return decode_result(blob)
