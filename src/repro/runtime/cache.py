"""On-disk result cache for completed experiment cells.

Each cell of an experiment grid (one Table-5 run x TimeOut, one
calibration profile, one assessment trajectory) is a pure function of
``(experiment, params, requests, seed)``.  The cache stores each cell's
reduced result under a content address derived from that key, so a
repeated benchmark or report run replays completed cells from disk
instead of re-simulating them.

Layout: ``<root>/<experiment>/<sha256-of-key>.pkl``.  Entries are written
atomically (temp file + rename) in the canonical snapshot encoding of
:mod:`repro.store.snapshot` — the *same* bytes a run store commits in a
stream file's result record, so a cache hit and a store hit are
interchangeable, bit for bit, and a store hit can re-warm the cache.
The cache is versioned: bump :data:`CACHE_VERSION` whenever a change to
the simulation code alters cell results, which invalidates every prior
entry at once.

The default root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-dsn2004``;
``repro-experiments --no-cache`` bypasses it and ``--clear-cache`` wipes
it.
"""

import hashlib
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Tuple, Union

from repro.lint.version import LINT_VERSION
from repro.obs.metrics import MetricsRegistry
from repro.store.snapshot import (
    KEY_ENCODER,
    decode_result,
    encode_result,
    write_atomic,
)

#: Bump to invalidate all previously cached cell results (e.g. after a
#: change to the simulation kernel or sampling layout).
CACHE_VERSION = 1

#: Bytes asked for by the one ``read`` of a cache hit.  A Table 5/6
#: entry pickles to about 0.5 KiB, so nearly every entry arrives whole;
#: a read that fills the buffer is followed by more until end of file.
_READ_SIZE = 1 << 16

#: ``os.open`` flags of that read; Windows opens descriptors in text
#: mode (newline translation) unless asked for binary.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-dsn2004``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-dsn2004"


def canonical_key(experiment: str, key: Mapping[str, Any]) -> str:
    """Stable serialisation of a cell key (sorted-key JSON + versions).

    The repro.lint ruleset version is part of every key: results cached
    under a weaker ruleset predate whatever violations the newer rules
    would have caught, so they must not mask a behaviour change — a
    lint upgrade invalidates the cache wholesale, like a kernel change.
    """
    payload = {
        "version": CACHE_VERSION,
        "lint": LINT_VERSION,
        "experiment": experiment,
        "key": dict(key),
    }
    return KEY_ENCODER.encode(payload)


def _read_entry(path: str) -> bytes:
    """An entry's bytes: one ``open`` and, for any entry smaller than
    :data:`_READ_SIZE`, one ``read``.

    On a regular file a read returns fewer bytes than asked only at end
    of file.  Were one ever cut short anyway, the prefix would fail to
    decode, and :meth:`ResultCache.get` would count a corrupt miss and
    re-run the cell: never a wrong result.
    """
    fd = os.open(path, _READ_FLAGS)
    try:
        blob = os.read(fd, _READ_SIZE)
        if len(blob) < _READ_SIZE:
            return blob
        chunks = [blob]
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
        return b"".join(chunks)
    finally:
        os.close(fd)


class ResultCache:
    """Content-addressed pickle store for experiment cell results.

    Pass a :class:`~repro.obs.metrics.MetricsRegistry` to count hits,
    misses, corrupt-entry evictions and writes (``cache.hit`` /
    ``cache.miss`` / ``cache.corrupt`` / ``cache.put``); with none
    attached every instrumentation site is a single ``is None`` check.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.metrics = metrics
        # Entry paths are joined onto this string, not built as Paths.
        self._root = os.fspath(self.root)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _entry(self, experiment: str, key: Mapping[str, Any]) -> str:
        digest = hashlib.sha256(
            canonical_key(experiment, key).encode("utf-8")
        ).hexdigest()
        return os.path.join(self._root, experiment, digest + ".pkl")

    def _path(self, experiment: str, key: Mapping[str, Any]) -> Path:
        """The entry file of one cell (which need not exist)."""
        return Path(self._entry(experiment, key))

    def get(
        self, experiment: str, key: Mapping[str, Any]
    ) -> Tuple[bool, Any]:
        """Look a cell up; returns ``(hit, value)``.

        Unreadable or corrupt entries count as misses (and are removed),
        so a torn write can never poison a run.
        """
        path = self._entry(experiment, key)
        try:
            value = decode_result(_read_entry(path))
        except FileNotFoundError:
            self._count("cache.miss")
            return False, None
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            self._count("cache.corrupt")
            self._count("cache.miss")
            return False, None
        self._count("cache.hit")
        return True, value

    def put(self, experiment: str, key: Mapping[str, Any], value: Any) -> None:
        """Store a cell result atomically (temp file + rename).

        The experiment's folder is made on its first entry, and again
        if it has gone since (:func:`~repro.store.snapshot.write_atomic`).
        """
        write_atomic(self._entry(experiment, key), encode_result(value))
        self._count("cache.put")

    def put_many(
        self,
        experiment: str,
        items: Sequence[Tuple[Mapping[str, Any], Any]],
    ) -> None:
        """Store a batch of ``(key, value)`` results.

        The single write-back API of the batched grid path: a group's
        results warm the materialized view in one call (each entry still
        lands atomically, so a crash mid-batch leaves only whole
        entries).
        """
        for key, value in items:
            self.put(experiment, key, value)

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def entry_count(self) -> int:
        """Number of cached cell results currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r})"
