"""Run store: one sealed file per committed cell or chunk.

``repro.store`` makes experiment grids resumable.  Each grid cell —
identified by ``(experiment, cell key)``, the key carrying the seed —
commits its reduced result as one file the moment it finishes, and a
batched chunk commits its members' results as one fsync'd file
(:mod:`~repro.store.log`).  A re-run of the same grid discovers the
committed cells and skips them (``store.resume_skipped_cells``,
``store.batch_resume_skipped_cells``): a grid interrupted after *k*
cells resumes and finishes bit-identical to an uninterrupted run.

Cache entries and store records encode through one codec
(:mod:`~repro.store.snapshot`), so a cache hit and a store hit are the
same bytes, and a store hit re-warms an attached cache.

CLI: ``python -m repro.store check-resume`` (the kill-and-resume
determinism harness); the experiments CLI grows ``--store PATH``.
"""

from repro.store.log import RunStore, canonical_stream_key
from repro.store.snapshot import decode_result, encode_result

__all__ = [
    "RunStore",
    "canonical_stream_key",
    "decode_result",
    "encode_result",
]
