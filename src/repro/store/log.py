"""The run store: one sealed file per committed cell or chunk.

The run store keeps each grid cell's reduced result so that an
interrupted grid resumes where it stopped and finishes bit-identical to
an uninterrupted run.  Every ``(experiment, cell key)`` pair — or, for
a batched chunk, ``(experiment, group key)`` — is one *stream*, stored
as one file::

    <root>/<experiment>/<digest>.json

where ``<digest>`` is the sha256 of :func:`canonical_stream_key`.  The
file holds ``{"layout": 1, "results": [record, ...]}``: one record for
a per-cell commit, one per member for a chunk, each member's record
naming its cell under ``"cell"``.  A record is the result's snapshot
bytes with their ``sha256`` and length (:mod:`repro.store.snapshot`).

Contract:

* a commit writes the whole file through
  :func:`~repro.store.snapshot.write_atomic` (temp file + rename), so a
  reader sees the previous file, the new one or none, never a part; a
  chunk commit is fsync'd before the rename, a per-cell commit is not;
* a commit always replaces the file, so the re-run of a damaged cell
  repairs it, and a deterministic cell writes the same bytes again;
* a load checks each record's ``sha256`` before unpickling it.  A file
  that is short, undecodable, of another layout, names other members,
  or holds a record whose digest is missing or wrong reads as a miss,
  counted under ``store.corrupt``; an absent file is a plain miss.
"""

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.store.snapshot import (
    KEY_ENCODER,
    result_from_record,
    result_record,
    write_atomic,
)

#: Version of the stream-file layout.  A file of any other version
#: reads as a miss, and the re-run's commit rewrites it in this one.
LAYOUT_VERSION = 1

#: Encoder of stream files: canonical, so equal results give equal bytes.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_stream_key(experiment: str, key: Mapping[str, Any]) -> str:
    """Stable serialisation of a stream identity.

    Mirrors the result cache's canonicalisation (sorted-key JSON) minus
    the cache/lint version salts: a ruleset bump must not orphan
    committed cells.  The store's own format is versioned by
    :data:`LAYOUT_VERSION` instead.
    """
    payload = {"experiment": experiment, "key": dict(key)}
    return KEY_ENCODER.encode(payload)


class RunStore:
    """Store of experiment runs: one file per committed cell or chunk.

    The store is keyed exactly like the result cache —
    ``(experiment, cell key)``, the key carrying the seed — so every
    resume decision shares the cache's aliasing guarantees (and the
    REPRO201 completeness rule covers both).  Pass a
    :class:`~repro.obs.metrics.MetricsRegistry` to count damaged files
    (``store.corrupt``) and chunk commits (``store.batch_commits``).
    """

    def __init__(
        self,
        root: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.root = Path(root)
        self.metrics = metrics

    def stream_path(self, experiment: str, key: Mapping[str, Any]) -> Path:
        """The file that holds the stream keyed *key*."""
        digest = hashlib.sha256(
            canonical_stream_key(experiment, key).encode("utf-8")
        ).hexdigest()
        return self.root / experiment / f"{digest}.json"

    def _commit(
        self, path: Path, records: List[Dict[str, Any]], fsync: bool
    ) -> None:
        payload = {"layout": LAYOUT_VERSION, "results": records}
        write_atomic(
            os.fspath(path),
            _ENCODER.encode(payload).encode("utf-8"),
            fsync=fsync,
        )

    def _load(
        self, path: Path, cells: List[Optional[str]]
    ) -> Optional[List[Any]]:
        """The results of the file at *path* if its records name exactly
        *cells* (``None`` for a per-cell record), else ``None``."""
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        try:
            payload = json.loads(raw)
            if payload["layout"] != LAYOUT_VERSION:
                raise ValueError(f"layout {payload['layout']!r}")
            records = payload["results"]
            if [record.get("cell") for record in records] != cells:
                raise ValueError("members differ")
            return [result_from_record(record) for record in records]
        except Exception:
            # A damaged file must degrade to a re-run, never poison the
            # grid (mirrors the cache's corrupt-entry policy).
            if self.metrics is not None:
                self.metrics.counter("store.corrupt").inc()
            return None

    # -- cell results (the resume path) ---------------------------------

    def load_result(
        self, experiment: str, key: Mapping[str, Any]
    ) -> Tuple[bool, Any]:
        """Fetch a committed cell result; ``(hit, value)``."""
        values = self._load(self.stream_path(experiment, key), [None])
        if values is None:
            return False, None
        return True, values[0]

    def commit_result(
        self, experiment: str, key: Mapping[str, Any], value: Any
    ) -> None:
        """Write the cell's result as its stream file (no fsync)."""
        self._commit(
            self.stream_path(experiment, key),
            [result_record(value)],
            fsync=False,
        )

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
        """Write a whole group of cell results as one fsync'd file.

        One record per member, each naming its cell's canonical key —
        the amortised durability write of the batched grid path
        (``store.batch_commits`` counts chunks).
        """
        cells = _canonical_keys(experiment, keys)
        records = []
        for cell, value in zip(cells, values):
            record = result_record(value)
            if cell is not None:
                record["cell"] = cell
            records.append(record)
        self._commit(
            self.stream_path(experiment, _group_digest(cells)),
            records,
            fsync=True,
        )
        if self.metrics is not None:
            self.metrics.counter("store.batch_commits").inc()

    def load_group_results(
        self,
        experiment: str,
        keys: List[Optional[Mapping[str, Any]]],
    ) -> Tuple[bool, Optional[List[Any]]]:
        """Fetch a committed group's results; ``(hit, values)``.

        A hit requires every member to be keyed and the group's file to
        hold exactly their records; anything less degrades to a miss
        and a re-run, mirroring :meth:`load_result`.
        """
        cells = _canonical_keys(experiment, keys)
        if None in cells:
            return False, None
        values = self._load(
            self.stream_path(experiment, _group_digest(cells)), cells
        )
        if values is None:
            return False, None
        return True, values

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
