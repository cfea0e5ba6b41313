"""Spans around the program's layer entry points, recorded from outside.

The program has no spans of its own yet, so the traced run wraps the
public entry points of each layer from here.  Every wrapper is bound
where the callers look the name up (a module global such as
``repro.pipeline.engine.run_cells``, or a method on its class) and
:func:`unbind` puts the original object back.

A span records name, layer, start, end, parent, process id and the
grid/cell it belongs to.  Spans stay in memory in the process that
opened the tracer.  Pool workers are forked from it while a
``run_cells`` span is open, so they inherit the parent link; they
cannot return spans at exit (the pool ends them with ``os._exit``), so
each worker appends every closed span to its own spool file and flushes
it at once.  :meth:`Tracer.collect` merges the spool files.

Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which
is comparable across processes on one host.
"""

import functools
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """In-memory span recorder shared by every wrapper of one traced pass."""

    def __init__(self, spool_dir: str):
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans: List[Dict[str, Any]] = []
        self.grid = ""
        self.fsyncs = 0
        self.endpoint_calls = 0
        self._stack: List[str] = []
        self._next = 0
        self._spool: Optional[Any] = None

    @contextmanager
    def span(
        self, name: str, layer: str, cell: str = ""
    ) -> Iterator[Dict[str, Any]]:
        """Time the enclosed block; the yielded dict becomes ``attrs``."""
        self._next += 1
        span_id = f"{os.getpid()}:{self._next}"
        parent = self._stack[-1] if self._stack else None
        attrs: Dict[str, Any] = {}
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record({
                "id": span_id,
                "parent": parent,
                "name": name,
                "layer": layer,
                "start": start,
                "end": end,
                "pid": os.getpid(),
                "grid": self.grid,
                "cell": cell,
                "attrs": attrs,
            })

    def _record(self, span: Dict[str, Any]) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
            return
        if self._spool is None:
            path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
            self._spool = open(path, "a", encoding="utf-8")
        self._spool.write(json.dumps(span) + "\n")
        self._spool.flush()

    def collect(self) -> List[Dict[str, Any]]:
        """Merge the worker spool files into :attr:`spans` and return it."""
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.startswith("spans-"):
                continue
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(json.loads(line) for line in handle)
            os.unlink(path)
        return self.spans


def _array_bytes(script: Any) -> int:
    """Bytes held by a demand script or arena, from its array shapes."""
    arrays = [script.t1, *script.t2]
    if script.outcome_codes is not None:
        arrays.append(script.outcome_codes)
    return sum(int(array.size) * array.itemsize for array in arrays)


def _rows(script: Any) -> int:
    return int(script.t1.size)


def _cell_label(kwargs: Dict[str, Any]) -> str:
    parts = []
    if "scenario" in kwargs:
        parts.append(f"scenario={kwargs['scenario'].name}")
    for name in ("mode", "detection_name", "n_releases", "run", "timeout"):
        if name in kwargs:
            parts.append(f"{name}={kwargs[name]}")
    return ",".join(parts)


# -- wrapper factories: (tracer, original) -> wrapper ---------------------


def _cell(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span("experiments.cell", "experiments", _cell_label(kwargs)):
            return original(*args, **kwargs)

    return wrapper


def _batch_cell(
    tracer: Tracer, original: Callable[..., Any]
) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(kwargs_list: List[Dict[str, Any]], *args: Any, **kw: Any) -> Any:
        with tracer.span("experiments.batch", "experiments") as attrs:
            attrs["cells"] = len(kwargs_list)
            return original(kwargs_list, *args, **kw)

    return wrapper


def _plain(name: str, layer: str) -> Callable[[Tracer, Callable[..., Any]], Callable[..., Any]]:
    def factory(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name, layer):
                return original(*args, **kwargs)

        return wrapper

    return factory


def _run_cells(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(cells: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("parallel.run_cells", "parallel") as attrs:
            attrs["cells"] = len(cells)
            attrs["jobs"] = int(kwargs.get("jobs", 1))
            return original(cells, *args, **kwargs)

    return wrapper


def _script(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span("sampling.draw", "sampling") as attrs:
            script = original(*args, **kwargs)
            attrs["rows"] = _rows(script)
            attrs["bytes"] = _array_bytes(script)
            return script

    return wrapper


def _resolve(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span("columnar.resolve", "columnar") as attrs:
            attrs["demands"] = int(kwargs.get("requests") or args[0].requests)
            return original(*args, **kwargs)

    return wrapper


def _resolve_batch(
    tracer: Tracer, original: Callable[..., Any]
) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(arena: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("columnar.resolve_batch", "columnar") as attrs:
            cells = arena.cells
            attrs["cells"] = cells
            attrs["demands"] = cells * int(kwargs.get("requests") or arena.rows)
            return original(arena, *args, **kwargs)

    return wrapper


def _cache_get(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Tuple[bool, Any]:
        with tracer.span("cache.get", "cache") as attrs:
            hit, value = original(*args, **kwargs)
            attrs["hit"] = bool(hit)
            return hit, value

    return wrapper


def _store_commit(
    tracer: Tracer, original: Callable[..., Any], group: bool
) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(self: Any, experiment: str, keys: Any, values: Any) -> Any:
        with tracer.span("store.commit", "store") as attrs:
            before = tracer.fsyncs
            try:
                return original(self, experiment, keys, values)
            finally:
                attrs["cells"] = len(values) if group else 1
                attrs["fsyncs"] = tracer.fsyncs - before

    return wrapper


def _fsync(tracer: Tracer, original: Callable[[int], None]) -> Callable[[int], None]:
    @functools.wraps(original)
    def wrapper(fd: int) -> None:
        tracer.fsyncs += 1
        original(fd)

    return wrapper


def _grid_init(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
        with tracer.span("bayes.grid_init", "bayes") as attrs:
            original(self, *args, **kwargs)
            attrs["points"] = int(self._pab.size)

    return wrapper


def _posterior(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("bayes.posterior", "bayes") as attrs:
            # One float64 posterior of grid shape per evaluation.
            attrs["bytes"] = int(self._pab.size) * self._pab.itemsize
            return original(self, *args, **kwargs)

    return wrapper


def _run_load(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span("aio.run_load", "aio") as attrs:
            before = tracer.endpoint_calls
            result = original(*args, **kwargs)
            attrs["demands"] = int(result.requests)
            attrs["endpoint_calls"] = tracer.endpoint_calls - before
            attrs["peak_queue_depth"] = int(result.peak_queue_depth)
            attrs["peak_reorder_buffer"] = int(result.peak_reorder_buffer)
            return result

    return wrapper


def _endpoint(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    # Counted, not timed: a span per endpoint invocation would cost more
    # than the virtual-clock invocation itself.
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.endpoint_calls += 1
        return original(*args, **kwargs)

    return wrapper


def bindings() -> List[Tuple[Any, str, Callable[[Tracer, Callable[..., Any]], Callable[..., Any]]]]:
    """Every (owner, attribute, wrapper factory) the traced run binds.

    Owners are the modules whose callers look the name up, or the class
    whose instances are called.
    """
    import repro.pipeline.engine as engine
    import repro.experiments.event_sim as event_sim
    import repro.experiments.multi_release as multi_release
    import repro.experiments.service_load as service_load
    import repro.experiments.table2 as table2
    import repro.runtime.columnar as columnar
    from repro.bayes.runner import SequentialAssessment
    from repro.bayes.whitebox import WhiteBoxAssessor
    from repro.runtime.cache import ResultCache
    from repro.services.aio.endpoint import AsyncEndpoint
    from repro.store.log import RunStore

    return [
        (engine, "run_cells", _run_cells),
        (event_sim, "run_release_pair_batch", _batch_cell),
        (event_sim, "run_joint_model_cell", _cell),
        (multi_release, "run_n_release_simulation", _cell),
        (table2, "_detection_history_cell", _cell),
        (service_load, "run_service_load_cell", _cell),
        (service_load, "run_release_pair_simulation",
         _plain("experiments.reference", "experiments")),
        (service_load, "cross_check",
         _plain("experiments.reference", "experiments")),
        (event_sim, "build_demand_script_arena", _script),
        (event_sim, "build_demand_script", _script),
        (multi_release, "build_demand_script", _script),
        (service_load, "build_demand_script", _script),
        (columnar, "resolve_cell_batch", _resolve_batch),
        (columnar, "resolve_cell", _resolve),
        (ResultCache, "get", _cache_get),
        (ResultCache, "put", _plain("cache.put", "cache")),
        (ResultCache, "put_many", _plain("cache.put", "cache")),
        (RunStore, "load_result", _plain("store.read", "store")),
        (RunStore, "load_group_results", _plain("store.read", "store")),
        (RunStore, "commit_result",
         lambda t, o: _store_commit(t, o, group=False)),
        (RunStore, "commit_group_results",
         lambda t, o: _store_commit(t, o, group=True)),
        (os, "fsync", _fsync),
        (SequentialAssessment, "run", _plain("bayes.stream", "bayes")),
        (WhiteBoxAssessor, "__init__", _grid_init),
        (WhiteBoxAssessor, "checkpoint_summary", _posterior),
        (service_load, "run_load", _run_load),
        (AsyncEndpoint, "invoke_within", _endpoint),
        (AsyncEndpoint, "call", _endpoint),
    ]


Bound = List[Tuple[Any, str, Any]]


def bind(tracer: Tracer) -> Bound:
    """Install every wrapper; returns what :func:`unbind` needs."""
    bound: Bound = []
    try:
        for owner, attr, factory in bindings():
            original = vars(owner)[attr]
            setattr(owner, attr, factory(tracer, original))
            bound.append((owner, attr, original))
    except BaseException:
        unbind(bound)
        raise
    return bound


def unbind(bound: Bound) -> None:
    """Put every original object back, last bound first."""
    for owner, attr, original in reversed(bound):
        setattr(owner, attr, original)
    bound.clear()


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap (pool workers run concurrently), so the covered
    part is the length of the union of their intervals.
    """
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["id"]] = (end - start) - covered
    return result


#: Span name -> the per-layer metric its self time adds to.
SELF_TIME_METRIC = {
    "pipeline.run_experiment": "pipeline.self_s",
    "parallel.run_cells": "parallel.self_s",
    "experiments.cell": "experiments.self_s",
    "experiments.batch": "experiments.self_s",
    "experiments.reference": "experiments.reference_s",
    "sampling.draw": "sampling.draw_s",
    "columnar.resolve": "columnar.resolve_s",
    "columnar.resolve_batch": "columnar.resolve_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "store.read": "store.read_s",
    "store.commit": "store.commit_s",
    "bayes.stream": "bayes.stream_s",
    "bayes.grid_init": "bayes.grid_init_s",
    "bayes.posterior": "bayes.posterior_s",
    "aio.run_load": "aio.load_s",
}

#: Span attribute -> the per-layer count it adds to, per span name.
ATTR_SUMS = {
    "parallel.run_cells": {"cells": "parallel.cells"},
    "sampling.draw": {"rows": "sampling.rows", "bytes": "sampling.bytes"},
    "columnar.resolve": {"demands": "columnar.demands"},
    "columnar.resolve_batch": {
        "demands": "columnar.demands", "cells": "columnar.fused_cells",
    },
    "store.commit": {"cells": "store.cells"},
    "bayes.posterior": {"bytes": "bayes.eval_bytes"},
    "aio.run_load": {
        "demands": "aio.demands", "endpoint_calls": "aio.endpoint_calls",
    },
}

#: Span attribute -> per-layer peak (maximum over spans).
ATTR_PEAKS = {
    "bayes.grid_init": {"points": "bayes.grid_points"},
    "aio.run_load": {
        "peak_queue_depth": "aio.peak_queue_depth",
        "peak_reorder_buffer": "aio.peak_reorder_buffer",
    },
}

#: Span name -> the per-layer metric counting its spans.
SPAN_COUNTS = {
    "pipeline.run_experiment": "pipeline.grids",
    "store.commit": "store.commits",
    "bayes.posterior": "bayes.posterior_evals",
}


def layer_totals(
    spans: List[Dict[str, Any]], main_pid: int
) -> Tuple[Dict[str, float], List[float]]:
    """Fold one process's spans (its pool workers' included) into layer sums.

    Also returns the pool utilization of every grid that used the pool:
    busy worker-seconds over workers x the time from dispatch to return.
    """
    own = self_times(spans)
    totals: Dict[str, float] = {}

    def add(metric: str, value: float) -> None:
        totals[metric] = totals.get(metric, 0.0) + value

    pooled: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        name, attrs = span["name"], span["attrs"]
        add(SELF_TIME_METRIC[name], own[span["id"]])
        if name in SPAN_COUNTS:
            add(SPAN_COUNTS[name], 1)
        for attr, metric in ATTR_SUMS.get(name, {}).items():
            add(metric, attrs.get(attr, 0))
        for attr, metric in ATTR_PEAKS.get(name, {}).items():
            totals[metric] = max(totals.get(metric, 0), attrs.get(attr, 0))
        if name == "cache.get":
            add("cache.hits" if attrs["hit"] else "cache.misses", 1)
        if name == "experiments.cell" and span["pid"] != main_pid:
            add("parallel.cells_pooled", 1)
            pooled.setdefault(span["parent"], []).append(span)
    # In a run_cells that used the pool, dispatch starts when the cells
    # it ran inline first (the cost probe) end.
    by_id = {span["id"]: span for span in spans}
    probe_end: Dict[str, float] = {}
    for span in spans:
        if (
            span["name"] == "experiments.cell"
            and span["pid"] == main_pid
            and span["parent"] in pooled
        ):
            add("parallel.probe_s", span["end"] - span["start"])
            probe_end[span["parent"]] = max(
                probe_end.get(span["parent"], 0.0), span["end"]
            )
    utilization = []
    for parent_id, cells in pooled.items():
        parent = by_id[parent_id]
        dispatch = probe_end.get(parent_id, parent["start"])
        add("parallel.queue_wait_s", sum(max(0.0, c["start"] - dispatch) for c in cells))
        workers = min(parent["attrs"]["jobs"], len(cells))
        busy = sum(c["end"] - c["start"] for c in cells)
        utilization.append(busy / (workers * (parent["end"] - dispatch)))
    return totals, utilization
