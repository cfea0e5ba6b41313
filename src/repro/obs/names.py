"""Canonical metric and trace-event names (``repro.obs``).

Every counter / gauge / histogram name handed to a
:class:`~repro.obs.metrics.MetricsRegistry` and every trace-event kind
handed to a :class:`~repro.obs.trace.Tracer` must be declared here.
The whole-program analyzer (rule REPRO204 in :mod:`repro.lint.program`)
verifies the emission sites against these sets *statically*, so a typo
in a metric name — which would silently fork a counter and falsify
fallback budgets and trace diffs — is a lint failure, not a mystery in
a dashboard.

Declared as plain frozen literals (no computation) so the analyzer can
read them from the AST without importing anything.  When adding an
instrument: declare the name here first, then emit it; REPRO204 flags
emissions of undeclared names, and :mod:`tests.obs` pins the registry
round-trip.
"""

from typing import FrozenSet, Tuple

#: Every registered metric instrument name (counters, gauges and
#: histograms share one namespace — the registry keys them per type).
METRIC_NAMES: FrozenSet[str] = frozenset({
    "aio.demands",
    "aio.faults",
    "aio.inflight_peak",
    "aio.queue_depth",
    "aio.queue_wait_seconds",
    "aio.throughput",
    "backend.batched_cells",
    "backend.batched_scripts",
    "backend.columnar_cells",
    "backend.fallback_cells",
    "bayes.planned_cells",
    "cache.corrupt",
    "cache.hit",
    "cache.miss",
    "cache.put",
    "kernel.compactions",
    "kernel.dispatched",
    "kernel.peak_heap",
    "pool.cell_seconds",
    "pool.cells_executed",
    "pool.inline_cells",
    "pool.jobs",
    "pool.queue_wait_seconds",
    "pool.utilization",
    "store.batch_commits",
    "store.batch_resume_skipped_cells",
    "store.corrupt",
    "store.resume_skipped_cells",
})

#: Prefixes of metric-name *families* whose suffix is computed at run
#: time (one counter per columnar fallback slug).  A dynamic metric
#: name must start with one of these; REPRO203 separately checks that
#: literal ``backend.fallback_reason.<slug>`` names use declared slugs.
METRIC_PREFIXES: Tuple[str, ...] = ("backend.fallback_reason.",)

#: Every trace-event ``kind`` emitted through a Tracer: kernel activity
#: (schedule / dispatch / cancel / compact), middleware demand spans
#: (demand / invoke / collect / timeout / adjudicate / deliver) and
#: Bayesian-runner checkpoints.
EVENT_NAMES: FrozenSet[str] = frozenset({
    "adjudicate",
    "cancel",
    "checkpoint",
    "collect",
    "compact",
    "deliver",
    "demand",
    "dispatch",
    "invoke",
    "schedule",
    "timeout",
})
