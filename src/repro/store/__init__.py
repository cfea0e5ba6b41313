"""Event-sourced run store: append-only log + CQRS projections.

``repro.store`` turns every experiment run into durable, replayable
state.  Each grid cell — identified by ``(experiment, cell key)``, the
key carrying the seed — owns an append-only *stream* of schema-
versioned event envelopes spread over bounded segment files with a
commit/offset index (:mod:`~repro.store.log`); read models are
*projections*, checkpointed folds that catch up incrementally from the
log instead of recomputing (:mod:`~repro.store.projections`).

What the layers above get from it:

* **resumable grids** — :func:`repro.runtime.parallel.run_cells`
  commits each cell's result to its stream as it completes, and a
  rerun discovers the committed cells and skips them
  (``store.resume_skipped_cells``): a grid interrupted after *k* cells
  resumes and finishes bit-identical to an uninterrupted run;
* **snapshot/cache unification** — cache entries and ``cell_result``
  events encode through one codec (:mod:`~repro.store.snapshot`), so a
  cache hit and a log catch-up are the same bytes;
* **lossless history** — tracers emit versioned envelopes and readers
  upcast (:mod:`repro.obs.envelope`), so PR 3-era v1 traces read
  back exactly as :mod:`repro.obs.diff` always saw them;
* **streaming diff** — divergence localisation is a projection over
  two logs, O(segment) memory, never O(file).

CLI: ``python -m repro.store compact|project|resume|check-resume``;
the experiments CLI grows ``--store PATH``.
"""

from repro.obs.envelope import (
    SCHEMA_VERSION,
    UPCASTERS,
    decode_event,
    decode_line,
    encode_event,
)
from repro.store.log import (
    DEFAULT_SEGMENT_EVENTS,
    EventStream,
    RunStore,
    canonical_stream_key,
)
from repro.store.projections import (
    BUILTIN_PROJECTIONS,
    CellResultProjection,
    ConfidenceTrajectoryProjection,
    MetricsRollupProjection,
    Projection,
    TableRowsProjection,
    catch_up,
    first_divergence,
)
from repro.store.snapshot import (
    CELL_RESULT_KIND,
    decode_result,
    encode_result,
)

__all__ = [
    "BUILTIN_PROJECTIONS",
    "CELL_RESULT_KIND",
    "CellResultProjection",
    "ConfidenceTrajectoryProjection",
    "DEFAULT_SEGMENT_EVENTS",
    "EventStream",
    "MetricsRollupProjection",
    "Projection",
    "RunStore",
    "SCHEMA_VERSION",
    "TableRowsProjection",
    "UPCASTERS",
    "canonical_stream_key",
    "catch_up",
    "decode_event",
    "decode_line",
    "decode_result",
    "encode_event",
    "encode_result",
    "first_divergence",
]
