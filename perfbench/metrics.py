"""Workload and metric declarations, and the reduction of worker results.

Imports nothing from the program, so ``run.py`` can report a missing
source tree before any of it is loaded.
"""

import statistics
from typing import Any, Dict, List, Optional, Tuple

WORKLOADS = ("sweep", "campaign", "replay", "assessment", "service")

#: (name, unit, better) — reported on every workload with ``--trace 0``.
#: Grid latency percentiles are printed with their sample count but not
#: listed here: with one client in a closed loop they carry what
#: cells_per_s carries, and on a machine whose speed shifts between
#: states the median grid flips with the state more than the
#: cells-over-wall ratio does.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("cells_per_s", "cells/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: (name, unit, better) — reported on every workload with ``--trace 1``;
#: a layer the workload bypasses reads 0.  Counts of work done in the
#: fixed window are better higher, costs lower.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("setup.import_s", "s", "lower"),
    ("setup.discover_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.grids", "count", "higher"),
    ("parallel.self_s", "s", "lower"),
    ("parallel.cells", "count", "higher"),
    ("parallel.cells_executed", "count", "higher"),
    ("parallel.cells_pooled", "count", "higher"),
    ("parallel.probe_s", "s", "lower"),
    ("parallel.queue_wait_s", "s", "lower"),
    ("parallel.utilization", "ratio", "higher"),
    ("sampling.draw_s", "s", "lower"),
    ("sampling.rows", "count", "higher"),
    ("sampling.bytes", "bytes", "lower"),
    ("columnar.resolve_s", "s", "lower"),
    ("columnar.demands", "count", "higher"),
    ("columnar.fused_cells", "count", "higher"),
    ("columnar.fallback_cells", "count", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.bytes", "bytes", "lower"),
    ("store.read_s", "s", "lower"),
    ("store.commit_s", "s", "lower"),
    ("store.commits", "count", "lower"),
    ("store.fsyncs", "count", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("store.bytes_per_cell", "bytes", "lower"),
    ("bayes.stream_s", "s", "lower"),
    ("bayes.grid_init_s", "s", "lower"),
    ("bayes.posterior_s", "s", "lower"),
    ("bayes.posterior_evals", "count", "higher"),
    ("bayes.grid_points", "count", "lower"),
    ("bayes.eval_bytes", "bytes", "lower"),
    ("aio.load_s", "s", "lower"),
    ("aio.demands", "count", "higher"),
    ("aio.endpoint_calls", "count", "higher"),
    ("aio.peak_queue_depth", "count", "lower"),
    ("aio.peak_reorder_buffer", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.reference_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "higher"),
]


#: Per-layer values merged across processes by maximum, not by sum.
PEAKS = {"bayes.grid_points", "aio.peak_queue_depth", "aio.peak_reorder_buffer"}

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: List[float], share: float) -> Optional[float]:
    """The *share* quantile, or ``None`` when fewer than ``TAIL_SAMPLES``
    values lie beyond it."""
    if len(values) * (1.0 - share) < TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce the processes of one run to the end-to-end report.

    Set-up counts every process; the rest counts the processes that ran
    timed grids (not the replay fill).

    Returns ``{name: (value, unit, n)}`` for every metric the report
    prints; the ``END_TO_END`` subset goes into the final JSON line.
    """
    setups = [result["setup_s"] for result in results]
    timed = [result for result in results if result["grids"]]
    grids = [grid for result in timed for grid in result["grids"]]
    latencies = [grid["latency"] for grid in grids]
    wall = sum(latencies)
    cells = sum(grid["cells"] for grid in grids)
    demands = sum(grid["demands"] for grid in grids)
    p90 = percentile(latencies, 0.9)
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "cells_per_s": (cells / wall, "cells/s", len(grids)),
        "grid_p50_ms": (statistics.median(latencies) * 1e3, "ms", len(grids)),
        "grid_p90_ms": (None if p90 is None else p90 * 1e3, "ms", len(grids)),
        "demands_per_s": (demands / wall, "demands/s", len(grids)),
        "peak_rss_mb": (max(result["rss_mb"] for result in timed), "MB", len(timed)),
    }


def per_layer(results: List[Dict[str, Any]]) -> Dict[str, float]:
    """Merge the traced processes of one run into the per-layer metrics."""
    values: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}
    traced = [result for result in results if "trace" in result]
    for result in traced:
        for name, value in result["trace"]["totals"].items():
            if name in PEAKS:
                values[name] = max(values[name], value)
            else:
                values[name] = values.get(name, 0.0) + value
    values.pop("store.cells", None)
    # Persistence directories are counted once: the replay processes
    # share the one the fill wrote.
    dirs = {path: d for result in traced for path, d in result["trace"]["dirs"].items()}
    values["cache.bytes"] = sum(d["cache.bytes"] for d in dirs.values())
    values["store.bytes"] = sum(d["store.bytes"] for d in dirs.values())
    cells = sum(d["cells"] for d in dirs.values())
    values["store.bytes_per_cell"] = values["store.bytes"] / cells if cells else 0.0
    utilization = [u for result in traced for u in result["trace"]["utilization"]]
    values["parallel.utilization"] = (
        statistics.fmean(utilization) if utilization else 0.0
    )
    values["setup.import_s"] = statistics.median(
        result["setup"]["import_s"] for result in results
    )
    values["setup.discover_s"] = statistics.median(
        result["setup"]["discover_s"] for result in results
    )
    traced_wall = sum(result["trace"]["wall"] for result in traced)
    untraced_wall = sum(result["trace"]["untraced_wall"] for result in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead"] = traced_wall / untraced_wall if untraced_wall else 0.0
    values["trace.spans"] = sum(result["trace"]["spans"] for result in traced)
    return values
