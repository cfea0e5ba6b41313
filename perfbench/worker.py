"""One fresh benchmark process: set up, run a timed closed loop, check.

Run as ``python3 -m perfbench.worker '<config json>'`` from the root of
a checkout.  The process prints ``READY`` once set-up is done (the
parent times interpreter start to that line as ``setup_s``), then one
``RESULT <json>`` line.  Roles:

* ``timed`` — a closed loop of the workload's grids for ``budget``
  seconds, then the output checks;
* ``fill`` — the replay workload's cold pass into shared directories,
  writing a manifest of the grids and their rendered-text digests;
* ``warm`` — the replay workload's timed pass: every manifest grid once,
  served from the filled cache, checked byte-equal to the cold text.

With ``trace`` set, every grid also runs a second time with the layer
wrappers of :mod:`perfbench.tracing` bound and a metrics registry
attached; the two runs alternate which goes first, their rendered
outputs must match, and the process also returns its per-layer sums.
"""

import json
import os
import random
import resource
import sys
import time
from typing import Any, Dict, List, Optional

#: Seeds of the recorded canary Table 2 texts (``reference/table2.json``);
#: a run checks the one at index ``--seed`` mod 4.
CANARY_SEEDS = (1, 2, 3, 4)


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def dir_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
    return total


class Failures:
    """Failed operations, keyed by the grid they belong to."""

    def __init__(self) -> None:
        self.by_op: Dict[str, List[str]] = {}

    def add(self, op: str, problems: List[str]) -> None:
        if problems:
            self.by_op.setdefault(op, []).extend(problems)

    def as_list(self) -> List[str]:
        return [f"{op}: {p}" for op, problems in self.by_op.items() for p in problems]


def persistence(workdir: str, metrics: Any = None) -> tuple:
    from repro.runtime.cache import ResultCache
    from repro.store.log import RunStore

    return (
        ResultCache(os.path.join(workdir, "cache"), metrics=metrics),
        RunStore(os.path.join(workdir, "store"), metrics=metrics),
    )


def check_runs(config: Dict[str, Any], runs: List[Any], cache: Any, failures: Failures) -> int:
    """Check every timed grid; returns extra operations attempted."""
    from perfbench import checks
    from perfbench.workloads import Grid, run_grid

    workload = config["workload"]
    for run in runs:
        if run.error:
            failures.add(op_label(run.grid), [run.error])
    good = [run for run in runs if not run.error]
    if workload in ("sweep", "campaign"):
        rng = random.Random(f"{workload}/{config['seed']}/{config['start']}")
        for _ in range(config["samples"]):
            if not good:
                break
            run = rng.choice(good)
            failures.add(op_label(run.grid), guarded(checks.check_event_sample, run, cache, rng))
    elif workload == "assessment":
        for run in good:
            failures.add(op_label(run.grid), guarded(checks.check_table2, run))
        if config.get("canary"):
            first = runs[0].grid
            canary = run_grid(Grid(
                "table2", CANARY_SEEDS[config["seed"] % len(CANARY_SEEDS)],
                first.requests, first.fast, first.jobs,
            ), keep=True)
            problems = [canary.error] if canary.error else guarded(
                checks.check_reference, canary, checks.load_references()
            )
            failures.add("canary", problems)
            return 1
    elif workload == "service":
        for run in good:
            failures.add(op_label(run.grid), guarded(checks.check_service, run))
    return 0


def op_label(grid: Any) -> str:
    return f"{grid.spec}/{grid.seed}"


def guarded(check: Any, *args: Any) -> List[str]:
    """Run a check; a check that raises reports a failure."""
    try:
        return check(*args)
    except Exception as error:
        return [f"check raised {type(error).__name__}: {error}"]


class TracedRunner:
    """Runs grids with the layer wrappers bound and a registry attached.

    The wrappers are bound around each grid only, so the untraced grid
    it is paired with runs the original code.
    """

    def __init__(self, config: Dict[str, Any], workdir: Optional[str]):
        from repro.obs.metrics import MetricsRegistry
        from perfbench import tracing

        self.config = config
        self.workdir = workdir
        self.spool = os.path.join(config["scratch"], f"spool-{os.getpid()}")
        os.makedirs(self.spool)
        self.tracer = tracing.Tracer(self.spool)
        self.registry = MetricsRegistry()
        self.cache = self.store = None
        if workdir is not None:
            self.cache, self.store = persistence(workdir, self.registry)
        self.runs: List[Any] = []

    def run(self, grid: Any) -> Any:
        from perfbench import tracing
        from perfbench.workloads import run_grid

        self.tracer.grid = op_label(grid)
        bound = tracing.bind(self.tracer)
        try:
            with self.tracer.span("pipeline.run_experiment", "pipeline"):
                run = run_grid(grid, self.cache, self.store, self.registry)
        finally:
            tracing.unbind(bound)
        self.runs.append(run)
        return run

    def finish(self, untraced: List[Any], failures: "Failures") -> Dict[str, Any]:
        """Check traced outputs against the untraced ones; fold the spans."""
        from perfbench import tracing
        from perfbench.checks import check_same_text

        for before, after in zip(untraced, self.runs):
            if after.error:
                failures.add(op_label(before.grid), [f"traced: {after.error}"])
            elif not before.error:
                failures.add(op_label(before.grid), check_same_text(
                    after, before.text_sha256, "traced"
                ))
        spans = self.tracer.collect()
        os.rmdir(self.spool)
        with open(self.config["trace_out"], "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        totals, utilization = tracing.layer_totals(spans, os.getpid())
        counters = self.registry.as_dict()["counters"]
        totals["store.fsyncs"] = self.tracer.fsyncs
        totals["parallel.cells_executed"] = counters.get("pool.cells_executed", 0)
        totals["columnar.fallback_cells"] = counters.get(
            "backend.fallback_cells", 0
        ) + counters.get("backend.batched_fallback_cells", 0)
        dirs = {}
        if self.workdir is not None:
            dirs[self.workdir] = {
                "cache.bytes": dir_bytes(os.path.join(self.workdir, "cache")),
                "store.bytes": dir_bytes(os.path.join(self.workdir, "store")),
                "cells": sum(run.cells for run in self.runs),
            }
        return {
            "totals": totals,
            "dirs": dirs,
            "utilization": utilization,
            "spans": len(spans),
            "wall": sum(run.latency for run in self.runs),
            "untraced_wall": sum(run.latency for run in untraced),
        }


def paired(untraced_step: Any, runner: TracedRunner) -> Any:
    """A step that runs each grid untraced and traced, alternating which
    goes first so warm-up favours neither side of the overhead ratio."""
    def step(grid: Any) -> Any:
        if len(runner.runs) % 2:
            runner.run(grid)
            return untraced_step(grid)
        run = untraced_step(grid)
        runner.run(grid)
        return run

    return step


def role_timed(config: Dict[str, Any], workdir: str) -> Dict[str, Any]:
    from perfbench.workloads import closed_loop, run_grid, uses_persistence

    workload = config["workload"]
    cache = store = None
    if uses_persistence(workload):
        cache, store = persistence(os.path.join(workdir, "cold"))
    # The assessment and service checks read the result objects.
    keep = workload in ("assessment", "service")

    def step(grid: Any) -> Any:
        return run_grid(grid, cache, store, keep=keep)

    runner = None
    if config["trace"]:
        runner = TracedRunner(
            config,
            os.path.join(workdir, "traced") if uses_persistence(workload) else None,
        )
        step = paired(step, runner)
    runs = closed_loop(
        workload, config["seed"], config["start"], config["budget"], config["tiny"], step
    )
    result: Dict[str, Any] = {
        "grids": [run.record() for run in runs],
        "rss_mb": peak_rss_mb(),
    }
    failures = Failures()
    extra = check_runs(config, runs, cache, failures)
    if runner is not None:
        result["trace"] = runner.finish(runs, failures)
    result["attempted"] = len(runs) + extra
    result["failed"] = len(failures.by_op)
    result["failures"] = failures.as_list()
    return result


def role_fill(config: Dict[str, Any], workdir: str) -> Dict[str, Any]:
    from perfbench.workloads import closed_loop, run_grid

    cache, store = persistence(config["shared"])
    runs = closed_loop(
        "replay", config["seed"], 0, config["budget"], config["tiny"],
        lambda grid: run_grid(grid, cache, store),
    )
    failures = Failures()
    for run in runs:
        if run.error:
            failures.add(op_label(run.grid), [run.error])
    manifest = [run.record() for run in runs if not run.error]
    with open(os.path.join(config["shared"], "manifest.json"), "w") as handle:
        json.dump(manifest, handle)
    return {
        "grids": [],
        "fill_grids": len(manifest),
        "fill_wall": sum(run.latency for run in runs),
        "rss_mb": peak_rss_mb(),
        "attempted": len(failures.by_op),
        "failed": len(failures.by_op),
        "failures": failures.as_list(),
    }


def role_warm(config: Dict[str, Any], workdir: str) -> Dict[str, Any]:
    from perfbench.checks import check_same_text
    from perfbench.workloads import Grid, run_grid

    with open(os.path.join(config["shared"], "manifest.json")) as handle:
        manifest = json.load(handle)
    cache, store = persistence(config["shared"])

    def step(grid: Any) -> Any:
        return run_grid(grid, cache, store)

    runner = None
    if config["trace"]:
        runner = TracedRunner(config, config["shared"])
        step = paired(step, runner)
    runs = [
        step(Grid(e["spec"], e["seed"], e["requests"], e["fast"], e["jobs"]))
        for e in manifest
    ]
    result: Dict[str, Any] = {
        "grids": [run.record() for run in runs],
        "rss_mb": peak_rss_mb(),
    }
    failures = Failures()
    for run, entry in zip(runs, manifest):
        problems = [run.error] if run.error else check_same_text(
            run, entry["text_sha256"], "warm"
        )
        failures.add(op_label(run.grid), problems)
    if runner is not None:
        result["trace"] = runner.finish(runs, failures)
    result["attempted"] = len(runs)
    result["failed"] = len(failures.by_op)
    result["failures"] = failures.as_list()
    return result


ROLES = {"timed": role_timed, "fill": role_fill, "warm": role_warm}


def main() -> None:
    config = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    began = time.perf_counter()
    import repro.pipeline

    imported = time.perf_counter()
    repro.pipeline.discover()
    discovered = time.perf_counter()
    workdir = os.path.join(config["scratch"], f"proc-{os.getpid()}")
    os.makedirs(workdir)
    setup = {"import_s": imported - began, "discover_s": discovered - imported}
    print("READY", flush=True)
    # Start the timed window with no dirty pages from earlier runs, so
    # the store's fsyncs flush only what this process wrote.
    os.sync()
    result = ROLES[config["role"]](config, workdir)
    result["setup"] = setup
    print("RESULT " + json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
