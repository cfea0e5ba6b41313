"""Quick benchmark harness writing machine-readable ``BENCH_engine.json``.

Measures the numbers the runtime work is accountable for —

* kernel event throughput (``kernel`` — median and IQR of repeated
  runs, and events/sec at the median),
* middleware demand throughput (demands/sec),
* Table-5 cell wall-time on the event kernel and on the columnar array
  backend (``cell.event`` / ``cell.columnar`` as median and IQR, and
  ``cell.speedup_vs_event`` — the bit-identical array path must beat
  the vectorized event path ≥5x),
* the same pair for one cell per other operating mode the columnar
  backend resolves (``modes.<mode>`` — each speedup must be ≥10x),
* the registry-wide ``auto`` fallback ratio (columnar vs fallback
  cells across every backend-aware registered spec),
* the asyncio service substrate under load
  (``service_load.headline`` — a single-process 10^6-request
  virtual-clock run through the managed-upgrade middleware,
  cross-checked against the columnar simulation, plus per-mode
  throughput),
* the 12-cell grid per demand-resolution strategy (``grid.backends`` —
  event vs the fused batched columnar path as median and IQR, with the
  pool's inline-gate decision recorded), a ≥1000-cell campaign sweep
  down the batched path (``campaign`` — median and IQR, cells/sec,
  deterministic chunk sizes, scripts drawn) and the
  fused path's script-arena draw for one full-size Table 5 group
  (``arena_draw`` — median and IQR, cells, scripts and rows drawn) and
  the columnar resolver alone on that group and on fidelity's
  calibrated one (``resolver`` — median and IQR, ms per group, ns per
  demand),
* the run store in the shapes the run path uses (``store`` — the
  per-cell commit and load of one Table 5 result, and the fsync'd
  commit and load of a 12-cell chunk, as median and IQR),
* the white-box posterior at the paper's 160x160x64 grid (``bayes`` —
  assessor construction and one checkpoint evaluation as median and
  IQR of repeated runs, the bytes of grid-shaped arrays a constructed
  assessor holds, one Table 2 grid at 3,000 demands per cell
  across every CPU, the same grid's assessor constructions, posterior
  evaluations, pool workers and wall time at jobs 1, 2 and 4, one
  full-size scenario-2 cell, and the full-size Table 2 grid at jobs 2),
* process start-up (``startup`` — ``import repro.pipeline`` and
  ``discover()`` in fresh interpreters as median and IQR, and the wall
  time of ``cli all --fast --no-cache``),
* the warm path (``warm_replay`` — table5, table6, fidelity and
  multirelease at ``--fast`` re-run from a cache filled once, per grid
  as median and IQR, plus the mix's cells/sec) and the spec layer's own
  cost (``pipeline`` — the engine against a direct call of the same
  columnar Table-5 grid, median and IQR per side),

plus the ``--jobs`` scaling of a small Table-5 grid on the event kernel
(``grid`` — median and IQR at one job and at ``--jobs``), the wall-time of
the ``repro.lint`` determinism linter over ``src/`` and of its
whole-program (``--program``) analysis over ``src/repro`` (both gate
every CI run, so their cost is tracked like any other hot path), the
overhead of
``repro.obs`` tracing (enabled vs disabled cell wall-time, both as
median and IQR — the disabled path must stay within noise of the
pre-obs kernel) and the
operational metrics snapshot of the grid run.  CI runs
``python benchmarks/bench_json.py --quick`` and archives the JSON;
committed numbers come from a full run (``--requests 5000``).

This module intentionally defines no ``test_*`` functions: the
pytest-benchmark suite lives in ``bench_engine_perf.py``; this harness
exists so CI and developers get one comparable JSON artefact without the
plugin's statistics machinery.
"""

import argparse
import gc
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.bayes.counts import JointCounts
from repro.bayes.priors import GridSpec
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.common.seeding import SeedSequenceFactory
from repro.core.modes import ModeConfig
from repro.experiments import paper_params as P
from repro.experiments.event_sim import (
    SimulationTable,
    calibrated_profile,
    draw_release_pair_arena,
    paper_profile,
    release_pair_cells,
    run_release_pair_simulation,
)
from repro.experiments.scenarios import scenario_1, scenario_2
from repro.experiments.table2 import assessment_cells
from repro.experiments.table5 import TABLE5_LABEL, TABLE5_SPEC
from repro.runtime.parallel import _batch_chunk_limit, run_cells
from repro.lint.engine import run_lint, run_program_lint
from repro.pipeline import (
    ExperimentOptions,
    build_grid,
    discover,
    get_spec,
    registered_specs,
    run_experiment,
)
from repro.experiments.service_load import (
    MODE_NAMES as SERVICE_LOAD_MODES,
    run_service_load_cell,
)
from repro.lint.version import LINT_VERSION
from repro.obs.metrics import MetricsRegistry
from repro.runtime import columnar
from repro.runtime.cache import ResultCache
from repro.simulation.engine import Simulator
from repro.store.log import RunStore


#: Timed runs of the bare kernel, after one warm run.
KERNEL_REPEATS = 7


def bench_kernel_events(events: int = 50_000) -> dict:
    """The bare kernel scheduling and dispatching *events* events.

    Median and IQR of :data:`KERNEL_REPEATS` runs, each on a fresh
    :class:`Simulator` with the collector paused, and the events per
    second at the median.
    """
    def run() -> None:
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1

        for i in range(events):
            sim.schedule(float(i % 100) / 10.0, tick)
        sim.run()
        assert count[0] == events

    samples = _timed_repeats(run, KERNEL_REPEATS)
    return {
        "events": events,
        "repeats": KERNEL_REPEATS,
        **_quartiles(samples),
        "events_per_sec": round(events / float(np.median(samples))),
    }


#: Timed runs of each benchmark cell, after one warm run.
CELL_REPEATS = 7


def bench_cell(requests: int, backend: str = "event", **overrides) -> dict:
    """Wall-time of one Table-5 cell (run 1, TimeOut 1.5 s).

    Median and IQR of :data:`CELL_REPEATS` runs with the garbage
    collector paused.
    """
    def run() -> None:
        metrics = run_release_pair_simulation(
            P.correlated_model(1), timeout=1.5, requests=requests,
            seed=3, backend=backend, **overrides,
        )
        assert metrics.system.total_requests == requests

    return _quartiles(_timed_repeats(run, CELL_REPEATS))


def _cell_pair(requests: int, **overrides) -> dict:
    """One cell on the event kernel and on the columnar backend."""
    event = bench_cell(requests, **overrides)
    columnar = bench_cell(requests, backend="columnar", **overrides)
    return {
        "requests": requests,
        "repeats": CELL_REPEATS,
        "event": event,
        "columnar": columnar,
        "speedup_vs_event": round(
            event["median_seconds"] / columnar["median_seconds"], 2
        ),
    }


#: The other operating modes the columnar backend resolves, benchmarked
#: per backend.  Each label lands in the JSON as ``modes.<label>``.
MODE_BENCHES = (
    ("responsiveness", {"mode": ModeConfig.max_responsiveness()}),
    ("dynamic_k1", {"mode": ModeConfig.dynamic(1)}),
    ("sequential_fixed", {"mode": ModeConfig.sequential()}),
)


def bench_modes(requests: int) -> dict:
    """Event vs columnar cell wall-time per operating mode."""
    return {
        label: _cell_pair(requests, **overrides)
        for label, overrides in MODE_BENCHES
    }


def bench_registry_fallback(requests: int) -> dict:
    """``auto``-backend fallback ratio across the registered specs.

    Runs every backend-aware spec (fast sizes, reduced requests) with
    ``backend="auto"`` and a metrics registry attached; reports per-spec
    columnar/fallback cell counts and the registry-wide ratio.  With the
    widened envelope every untraced cell should resolve columnar — the
    ratio is the regression alarm.
    """
    discover()
    specs = {}
    columnar_total = 0
    fallback_total = 0
    for name, spec in sorted(registered_specs().items()):
        if "backend" not in spec.cache_schema:
            continue
        registry = MetricsRegistry()
        options = ExperimentOptions(
            seed=3, fast=True, requests=requests, backend="auto",
            metrics=registry,
        )
        run_experiment(spec, options)
        counters = registry.as_dict()["counters"]
        columnar = int(counters.get("backend.columnar_cells", 0))
        fallback = int(counters.get("backend.fallback_cells", 0))
        columnar_total += columnar
        fallback_total += fallback
        specs[name] = {
            "columnar_cells": columnar,
            "fallback_cells": fallback,
        }
    total = columnar_total + fallback_total
    return {
        "requests_per_cell": requests,
        "specs": specs,
        "columnar_cells": columnar_total,
        "fallback_cells": fallback_total,
        "fallback_ratio": round(fallback_total / total, 4) if total else 0.0,
    }


def bench_service_load(headline_requests: int, mode_requests: int) -> dict:
    """Asyncio substrate throughput on the virtual clock, cross-checked.

    The headline run drives ``headline_requests`` demands through the
    real asyncio middleware in one process — bounded queue, worker
    pool, streaming reduction — and asserts the Table-5/6 rows land in
    the documented tolerance envelope against the columnar simulation.
    The committed (non-``--quick``) figure is the 10^6-request run the
    substrate is specified for; ``demands_per_sec`` is pure processing
    cost (virtual clock: simulated seconds are free).  Per-mode
    throughput is sampled at ``mode_requests``.
    """
    headline = run_service_load_cell(
        joint="correlated", run=2, timeout=2.0,
        requests=headline_requests, seed=3, mode="reliability",
        concurrency=64, queue_capacity=256, backend="columnar",
    )
    assert headline.ok, headline.mismatches[:5]
    modes = {}
    for mode in SERVICE_LOAD_MODES:
        result = run_service_load_cell(
            joint="correlated", run=2, timeout=2.0,
            requests=mode_requests, seed=3, mode=mode,
            backend="columnar",
        )
        assert result.ok, (mode, result.mismatches[:5])
        modes[mode] = {
            "requests": mode_requests,
            "demands_per_sec": round(result.throughput),
        }
    return {
        "headline": {
            "requests": headline_requests,
            "mode": "reliability",
            "clock": "virtual",
            "concurrency": 64,
            "queue_capacity": 256,
            "wall_seconds": round(headline.wall_seconds, 2),
            "demands_per_sec": round(headline.throughput),
            "peak_reorder_buffer": headline.peak_reorder_buffer,
            "cross_check": "ok",
        },
        "modes": modes,
    }


#: Samples of each run-store operation, and calls of it per sample: one
#: call takes tens of microseconds, below the seconds rounding of
#: :func:`_quartiles`, so each sample times a run of calls.
STORE_REPEATS = 15
STORE_CALLS = 20

#: Requests per cell of the results the store bench commits (the
#: campaign's cell size; a result's pickled size does not depend on it).
STORE_REQUESTS = 200


def bench_store() -> dict:
    """The run store's commit and load, in the shapes the run path uses.

    The per-cell commit (no fsync) and load of one Table 5 result, and
    the fsync'd commit and load of the 12-cell Table 5 chunk the batched
    path writes — each as median and IQR of :data:`STORE_REPEATS`
    samples of :data:`STORE_CALLS` calls with the collector paused, and
    microseconds per call at the median.  Loads are checked to hit.
    """
    cells = release_pair_cells(
        "table5", "correlated", seed=3, requests=STORE_REQUESTS,
        backend="columnar",
    )
    values = run_cells(cells)
    experiment = cells[0].experiment
    keys = [cell.key for cell in cells]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        operations = {
            "cell_commit": lambda: store.commit_result(
                experiment, keys[0], values[0]
            ),
            "cell_load": lambda: store.load_result(experiment, keys[0]),
            "chunk_commit": lambda: store.commit_group_results(
                experiment, keys, values
            ),
            "chunk_load": lambda: store.load_group_results(
                experiment, keys
            ),
        }
        for name, operation in operations.items():
            def calls(operation=operation) -> None:
                for _ in range(STORE_CALLS):
                    operation()

            samples = _timed_repeats(calls, STORE_REPEATS)
            out[name] = {
                **_quartiles(samples),
                "us_per_call": round(
                    float(np.median(samples)) / STORE_CALLS * 1e6, 1
                ),
            }
        assert store.load_result(experiment, keys[0])[0]
        assert store.load_group_results(experiment, keys)[0]
        cell_bytes = store.stream_path(experiment, keys[0]).stat().st_size
        chunk_bytes = store.stream_path(
            experiment, store.group_key(experiment, keys)
        ).stat().st_size
    return {
        "requests_per_cell": STORE_REQUESTS,
        "cells_per_chunk": len(keys),
        "repeats": STORE_REPEATS,
        "calls_per_sample": STORE_CALLS,
        "cell_file_bytes": cell_bytes,
        "chunk_file_bytes": chunk_bytes,
        **out,
    }


#: Repeats of each white-box micro-benchmark (median and IQR), of the
#: Table 2 grid timing, fresh interpreters timing their first grid,
#: repeats of the full-size scenario-2 cell and of the full-size Table 2
#: grid.
BAYES_REPEATS = 15
BAYES_GRID_REPEATS = 3
BAYES_FIRST_GRID_INTERPRETERS = 3
BAYES_FULL_CELL_REPEATS = 3
BAYES_FULL_GRID_REPEATS = 3

#: Worker counts at which ``bayes.table2.work`` counts the grid's
#: assessor constructions and posterior evaluations and times it.
BAYES_WORK_JOBS = (1, 2, 4)

#: What a fresh interpreter times: its first Table 2 grid (the
#: ``bayes.table2`` configuration), after ``discover()``.  Here the
#: grid pays every first-use cost a long-lived process pays once, such
#: as the Bayes layer's ``scipy.special`` import — in the parent, or in
#: each forked pool worker if the parent has not loaded it.
FIRST_GRID_PROBE = """
import json, os, time
from repro.pipeline import ExperimentOptions, discover, get_spec, run_experiment
discover()
began = time.perf_counter()
run_experiment(
    get_spec("table2"),
    ExperimentOptions(seed=1, requests=3_000, jobs=os.cpu_count() or 1),
)
print(json.dumps(time.perf_counter() - began))
"""


def _quartiles(samples: list) -> dict:
    """Median and interquartile range of *samples*, in seconds."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "median_seconds": round(float(median), 5),
        "iqr_seconds": round(float(q3 - q1), 5),
    }


def _timed_repeats(fn, repeats: int) -> list:
    """Wall-times of *repeats* calls of *fn*, GC paused, after one warm call."""
    fn()
    samples = []
    reenable = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - started)
    finally:
        if reenable:
            gc.enable()
    return samples


def _bayes_work(run) -> dict:
    """Assessor constructions and posterior evaluations *run* makes,
    its pool workers' included, beside the checkpoints it records.

    The counters live in shared memory the forked workers inherit.
    """
    counts = multiprocessing.get_context("fork").Array("q", 2)
    init = WhiteBoxAssessor.__init__
    summary = WhiteBoxAssessor.checkpoint_summary

    def counted_init(self, *args, **kwargs):
        with counts.get_lock():
            counts[0] += 1
        init(self, *args, **kwargs)

    def counted_summary(self, *args, **kwargs):
        with counts.get_lock():
            counts[1] += 1
        return summary(self, *args, **kwargs)

    WhiteBoxAssessor.__init__ = counted_init
    WhiteBoxAssessor.checkpoint_summary = counted_summary
    try:
        histories = run()
    finally:
        WhiteBoxAssessor.__init__ = init
        WhiteBoxAssessor.checkpoint_summary = summary
    return {
        "assessor_constructions": counts[0],
        "posterior_evaluations": counts[1],
        "checkpoints": sum(len(h.records) for h in histories),
    }


def _grid_bytes(assessor: WhiteBoxAssessor) -> int:
    """Bytes of the distinct grid-shaped arrays *assessor* holds."""
    grid = assessor.grid
    shape = (grid.n_pa, grid.n_pb, grid.n_q)
    held = {
        id(value if value.base is None else value.base): value.nbytes
        for value in vars(assessor).values()
        if isinstance(value, np.ndarray) and value.shape == shape
    }
    return sum(held.values())


def bench_bayes(src_dir: Path) -> dict:
    """The white-box posterior at the paper's 160x160x64 grid.

    ``construct`` builds a :class:`WhiteBoxAssessor` (its two
    grid-sized likelihood tables, the cross table and log p00, and the
    compact log p11 and log(m - q*m) tables), and ``assessor_bytes`` is
    what the grid-shaped arrays of a constructed assessor hold: three
    float64 arrays, 39,321,600 bytes at 160x160x64, a figure CI's
    ``bench`` job gates exactly because ``--quick`` does not change
    it; ``checkpoint`` replaces the counts and answers
    one checkpoint's queries (a posterior evaluation plus both
    single-release marginals) — each as median and IQR of
    :data:`BAYES_REPEATS` runs with the collector paused.  ``table2``
    runs the ``assessment`` workload's grid (Table 2, 3,000 demands per
    cell, no cache) with one worker per CPU, median of
    :data:`BAYES_GRID_REPEATS` runs; one more, untimed run with a
    metrics registry records the workers the pool used and their
    utilization (``pool.jobs``, ``pool.utilization``), and
    ``first_grid`` is the median over
    :data:`BAYES_FIRST_GRID_INTERPRETERS` fresh interpreters of the same
    grid run first (:data:`FIRST_GRID_PROBE`).  ``work`` counts the
    assessor constructions and posterior evaluations of one more run of
    the grid at each of :data:`BAYES_WORK_JOBS`, pool workers included,
    against its checkpoints, with the workers its pool used
    (``pool.jobs``) and the grid's wall time at that count (median and
    IQR of :data:`BAYES_GRID_REPEATS` runs).  ``full_size_cell`` times one scenario-2
    cell at the paper's 50,000 demands (perfect detection, a checkpoint
    every 100), median and IQR of :data:`BAYES_FULL_CELL_REPEATS` runs,
    and ``full_size_table2`` the whole Table 2 grid at the paper's sizes
    with 2 workers, median and IQR of :data:`BAYES_FULL_GRID_REPEATS`
    runs.
    """
    prior = scenario_1().prior
    grid = GridSpec()
    construct = _timed_repeats(
        lambda: WhiteBoxAssessor(prior, grid), BAYES_REPEATS
    )
    assessor = WhiteBoxAssessor(prior, grid)
    assessor_bytes = _grid_bytes(assessor)
    counts = JointCounts(15, 35, 25, 2_925)

    def checkpoint() -> None:
        assessor.replace_counts(counts)
        assessor.checkpoint_summary(
            levels_a=(0.99,), levels_b=(0.99, 0.90), targets_b=(1e-3,)
        )

    evaluate = _timed_repeats(checkpoint, BAYES_REPEATS)
    jobs = os.cpu_count() or 1
    spec = get_spec("table2")
    options = ExperimentOptions(seed=1, requests=3_000, jobs=jobs)
    grids = _timed_repeats(
        lambda: run_experiment(spec, options), BAYES_GRID_REPEATS
    )
    registry = MetricsRegistry()
    run_experiment(spec, replace(options, metrics=registry))
    gauges = registry.as_dict()["gauges"]
    first_grids = [
        _in_fresh_interpreter(src_dir, FIRST_GRID_PROBE)
        for _ in range(BAYES_FIRST_GRID_INTERPRETERS)
    ]
    work = {}
    for count in BAYES_WORK_JOBS:
        def grid_at(count=count, metrics=None):
            return run_cells(
                build_grid(spec, replace(options, jobs=count)),
                jobs=count,
                metrics=metrics,
            )

        registry = MetricsRegistry()
        work[f"jobs_{count}"] = {
            **_bayes_work(lambda: grid_at(metrics=registry)),
            "pool_jobs": registry.as_dict()["gauges"]["pool.jobs"],
            **_quartiles(_timed_repeats(grid_at, BAYES_GRID_REPEATS)),
        }
    full_size = assessment_cells("table2", [scenario_2()], seed=1)[0]
    full_cell = _timed_repeats(
        lambda: full_size.fn(**full_size.kwargs), BAYES_FULL_CELL_REPEATS
    )
    full_grid = _timed_repeats(
        lambda: run_experiment(spec, ExperimentOptions(seed=1, jobs=2)),
        BAYES_FULL_GRID_REPEATS,
    )
    cells = len(spec.build_cells(options, spec.sizes(options)))
    grid_seconds = float(np.median(grids))
    return {
        "grid": [grid.n_pa, grid.n_pb, grid.n_q],
        "repeats": BAYES_REPEATS,
        "construct": _quartiles(construct),
        "assessor_bytes": assessor_bytes,
        "checkpoint": _quartiles(evaluate),
        "table2": {
            "demands_per_cell": 3_000,
            "cells": cells,
            "jobs": jobs,
            "repeats": BAYES_GRID_REPEATS,
            "seconds": round(grid_seconds, 4),
            "cells_per_sec": round(cells / grid_seconds, 2),
            "pool_jobs": gauges["pool.jobs"],
            "pool_utilization": round(gauges["pool.utilization"], 3),
            "first_grid": {
                "interpreters": BAYES_FIRST_GRID_INTERPRETERS,
                "median_seconds": round(float(np.median(first_grids)), 4),
            },
            "work": work,
        },
        "full_size_cell": {
            "scenario": full_size.kwargs["scenario"].name,
            "detection": full_size.kwargs["detection_name"],
            "demands": full_size.kwargs["demands"],
            # One every `every` demands, and one at the end.
            "checkpoints": -(
                -full_size.kwargs["demands"] // full_size.kwargs["every"]
            ),
            "repeats": BAYES_FULL_CELL_REPEATS,
            **_quartiles(full_cell),
        },
        "full_size_table2": {
            "demands_per_cell": full_size.kwargs["demands"],
            "cells": cells,
            "jobs": 2,
            "repeats": BAYES_FULL_GRID_REPEATS,
            **_quartiles(full_grid),
        },
    }


#: Fresh interpreters timed for the start-up figures, and end-to-end
#: runs of ``cli all --fast``.
STARTUP_INTERPRETERS = 10
CLI_ALL_REPEATS = 3

#: What a fresh interpreter times: the pipeline import, then
#: ``discover()`` (which imports every experiment module).
STARTUP_PROBE = """
import json, time
began = time.perf_counter()
import repro.pipeline
imported = time.perf_counter()
repro.pipeline.discover()
print(json.dumps([imported - began, time.perf_counter() - imported]))
"""


def _src_env(src_dir: Path) -> dict:
    """Environment of a child interpreter importing from *src_dir*."""
    path = [str(src_dir), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _in_fresh_interpreter(src_dir: Path, code: str):
    """Run *code* in a new interpreter; return the JSON value it prints."""
    probe = subprocess.run(
        [sys.executable, "-c", code],
        env=_src_env(src_dir), capture_output=True, text=True, check=True,
    )
    return json.loads(probe.stdout)


def bench_startup(src_dir: Path) -> dict:
    """What every process pays before its first cell, and a whole CLI run.

    ``import`` and ``discover`` are median and IQR over
    :data:`STARTUP_INTERPRETERS` fresh interpreters, each timing
    ``import repro.pipeline`` and then ``discover()``.  ``cli_all_fast``
    is the median wall time of :data:`CLI_ALL_REPEATS` runs of
    ``python -m repro.experiments.cli all --fast --no-cache``,
    interpreter start included.
    """
    imports, discovers = [], []
    for _ in range(STARTUP_INTERPRETERS):
        imported, discovered = _in_fresh_interpreter(src_dir, STARTUP_PROBE)
        imports.append(imported)
        discovers.append(discovered)
    walls = []
    for _ in range(CLI_ALL_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "all", "--fast",
             "--no-cache"],
            env=_src_env(src_dir), stdout=subprocess.DEVNULL, check=True,
        )
        walls.append(time.perf_counter() - started)
    return {
        "interpreters": STARTUP_INTERPRETERS,
        "import": _quartiles(imports),
        "discover": _quartiles(discovers),
        "cli_all_fast": {
            "repeats": CLI_ALL_REPEATS,
            "median_seconds": round(float(np.median(walls)), 3),
        },
    }


def table5_grid(requests: int, jobs: int, backend: str, metrics=None):
    """The registered 12-cell Table-5 grid (seed 3), uncached."""
    return run_experiment(TABLE5_SPEC, ExperimentOptions(
        seed=3, requests=requests, jobs=jobs, backend=backend,
        metrics=metrics,
    ))


def bench_grid(requests: int, jobs: int) -> dict:
    """The full 12-cell Table-5 grid on the event kernel at *jobs*.

    Median and IQR of :data:`SCALING_REPEATS` runs with the collector
    paused, after one warm run.
    """
    samples = _timed_repeats(
        lambda: table5_grid(requests, jobs, "event"),
        SCALING_REPEATS,
    )
    return _quartiles(samples)


#: Timed runs of the ``--jobs`` scaling grid, per grid strategy (after
#: one warm run), of the campaign sweep, of the arena draw and of the
#: resolver alone.
SCALING_REPEATS = 3
GRID_REPEATS = {"event": 3, "batched": 11}
CAMPAIGN_REPEATS = 5
ARENA_REPEATS = 21
RESOLVER_REPEATS = 41


def bench_grid_backends(requests: int, jobs: int) -> dict:
    """The 12-cell Table-5 grid per demand-resolution strategy.

    Times the identical grid two ways — event kernel and the fused
    batched columnar path — as median and IQR of
    :data:`GRID_REPEATS` runs with the garbage collector paused, both
    at ``jobs`` workers: the event cells fan across the process pool,
    while the batched pass runs in the parent and never reaches it.  A
    separate (untimed) metrics run of the batched grid records the
    fused-cell count (``backend.batched_cells``), the scripts its
    arena drew (``backend.batched_scripts``, one per run) and the
    cells the single-CPU gate diverted inline (``pool.inline_cells``),
    0 when every cell was fused.
    """
    configs = (
        ("event", "event"),
        ("batched", "columnar"),
    )
    out = {}
    for label, backend in configs:
        samples = _timed_repeats(
            lambda backend=backend: table5_grid(requests, jobs, backend),
            GRID_REPEATS[label],
        )
        entry = {
            "repeats": GRID_REPEATS[label],
            **_quartiles(samples),
            "cells_per_sec": round(12 / float(np.median(samples)), 1),
        }
        if label != "event":
            registry = MetricsRegistry()
            table5_grid(requests, jobs, backend, metrics=registry)
            counters = registry.as_dict()["counters"]
            entry["pool_inline_cells"] = int(
                counters.get("pool.inline_cells", 0)
            )
            entry["batched_cells"] = int(
                counters.get("backend.batched_cells", 0)
            )
            entry["batched_scripts"] = int(
                counters.get("backend.batched_scripts", 0)
            )
        out[label] = entry
    return {
        "cells": 12,
        "requests_per_cell": requests,
        "jobs": jobs,
        "backends": out,
        "speedup_batched_vs_event": round(
            out["event"]["median_seconds"]
            / out["batched"]["median_seconds"], 2
        ),
    }


def bench_campaign(grids: int, requests: int) -> dict:
    """A ≥1000-cell campaign sweep down the fused batched path.

    Builds *grids* independent 12-cell Table-5 grids (distinct root
    seeds — a parameter-sweep campaign over one workload shape), runs
    all of them as one cell list with batching on — median and IQR of
    :data:`CAMPAIGN_REPEATS` runs, GC paused — and reports cells/sec,
    the deterministic chunk sizes the batched pass used and the scripts
    drawn (a run split across two chunks is drawn in each).
    """
    cells = []
    for index in range(grids):
        cells.extend(release_pair_cells(
            "table5", "correlated", seed=1_000 + index,
            requests=requests, backend="columnar",
        ))
    last = {}

    def run() -> None:
        registry = MetricsRegistry()
        results = run_cells(cells, jobs=1, metrics=registry)
        assert all(result is not None for result in results)
        last["counters"] = registry.as_dict()["counters"]

    samples = _timed_repeats(run, CAMPAIGN_REPEATS)
    counters = last["counters"]
    batched = int(counters.get("backend.batched_cells", 0))
    # Chunk membership is deterministic (grid order, fixed limit), so
    # the batch sizes are arithmetic, not sampled.
    limit = _batch_chunk_limit()
    chunks = [
        min(limit, len(cells) - start)
        for start in range(0, len(cells), limit)
    ]
    return {
        "grids": grids,
        "cells": len(cells),
        "requests_per_cell": requests,
        "repeats": CAMPAIGN_REPEATS,
        **_quartiles(samples),
        "cells_per_sec": round(len(cells) / float(np.median(samples)), 1),
        "batch_size_limit": limit,
        "batch_chunks": len(chunks),
        "batch_sizes": {"max": max(chunks), "min": min(chunks)},
        "batched_cells": batched,
        "batched_scripts": int(counters.get("backend.batched_scripts", 0)),
    }


def bench_arena_draw() -> dict:
    """The script-arena draw of one full-size 12-cell Table 5 group.

    Draws the group's arena through the fused path's own
    :func:`~repro.experiments.event_sim.draw_release_pair_arena` — one
    row per run, shared by its three TimeOut cells, so 12 cells draw 4
    scripts of :data:`~repro.experiments.paper_params.REQUESTS_PER_RUN`
    rows — as median and IQR of :data:`ARENA_REPEATS` draws with the
    collector paused.
    """
    kwargs_list = [
        cell.kwargs for cell in release_pair_cells(
            "table5", "correlated", seed=3, requests=P.REQUESTS_PER_RUN,
            backend="columnar",
        )
    ]
    profile = paper_profile()

    def draw():
        return draw_release_pair_arena(
            kwargs_list, profile,
            [SeedSequenceFactory(kw["seed"]) for kw in kwargs_list],
        )

    samples = _timed_repeats(draw, ARENA_REPEATS)
    arena = draw()
    return {
        "requests_per_cell": P.REQUESTS_PER_RUN,
        "cells": arena.cells,
        "scripts": arena.scripts,
        "rows_drawn": arena.scripts * arena.rows,
        "repeats": ARENA_REPEATS,
        **_quartiles(samples),
    }


def bench_resolver() -> dict:
    """The columnar resolver alone on two full-size 12-cell groups.

    One Table 5 group (paper profile) and fidelity's Table 5 group
    (calibrated profile, whose legs can hang), each at
    :data:`~repro.experiments.paper_params.REQUESTS_PER_RUN` requests per
    cell.  Each group's arena is drawn once, outside the timing, through
    the fused path's :func:`draw_release_pair_arena`; what is timed is
    one :func:`~repro.runtime.columnar.resolve_cell_batch` call over it,
    with fresh middleware generators, as median and IQR of
    :data:`RESOLVER_REPEATS` calls with the collector paused.  Reports
    milliseconds per group and nanoseconds per resolved demand at the
    median.
    """
    out = {}
    for label, profile in (
        ("table5", paper_profile()), ("fidelity", calibrated_profile()),
    ):
        kwargs_list = [
            cell.kwargs for cell in release_pair_cells(
                "table5", "correlated", seed=3,
                requests=P.REQUESTS_PER_RUN, profile=profile,
                backend="columnar",
            )
        ]
        seeds = [SeedSequenceFactory(kw["seed"]) for kw in kwargs_list]
        arena = draw_release_pair_arena(kwargs_list, profile, seeds)
        timeouts = [float(kw["timeout"]) for kw in kwargs_list]
        names = [
            f"Web-Service 1.{index}"
            for index in range(len(profile.release_latencies))
        ]

        def resolve(arena=arena, timeouts=timeouts, seeds=seeds, names=names):
            columnar.resolve_cell_batch(
                arena, names, timeouts, P.ADJUDICATION_DELAY,
                [t + P.ADJUDICATION_DELAY + 0.5 for t in timeouts],
                [factory.generator("middleware") for factory in seeds],
            )

        samples = _timed_repeats(resolve, RESOLVER_REPEATS)
        median = float(np.median(samples))
        demands = arena.cells * arena.rows
        out[label] = {
            "cells": arena.cells,
            "scripts": arena.scripts,
            "demands": demands,
            **_quartiles(samples),
            "ms_per_group": round(median * 1e3, 3),
            "ns_per_demand": round(median / demands * 1e9, 1),
        }
    return {
        "requests_per_cell": P.REQUESTS_PER_RUN,
        "repeats": RESOLVER_REPEATS,
        "groups": out,
    }


#: Timed runs of the traced cell, after one warm run.
TRACED_REPEATS = 5


def bench_tracing_overhead(requests: int) -> dict:
    """Traced vs untraced cell wall-time (run 1, TimeOut 1.5 s).

    The untraced number here is the honest baseline for the
    zero-overhead-when-disabled claim: both cells run the instrumented
    kernel, one with a JSONL tracer attached and one with none.  The
    untraced side is :func:`bench_cell`'s median and IQR; the traced
    side is the median and IQR of :data:`TRACED_REPEATS` runs, each
    rewriting the same trace file, with the collector paused.
    """
    untraced = bench_cell(requests)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = str(Path(tmp) / "bench-cell.jsonl")

        def run() -> None:
            run_release_pair_simulation(
                P.correlated_model(1), timeout=1.5, requests=requests,
                seed=3, trace_path=trace_path,
                trace_cell="bench",
            )

        traced = _quartiles(_timed_repeats(run, TRACED_REPEATS))
        with open(trace_path) as handle:
            events = sum(1 for _ in handle)
    return {
        "requests": requests,
        "repeats": TRACED_REPEATS,
        "untraced": untraced,
        "traced": traced,
        "overhead_ratio": round(
            traced["median_seconds"] / untraced["median_seconds"], 3
        ),
        "events": events,
    }


#: Rounds of the pipeline-overhead bench, and timed runs per side in
#: each round (each round also runs one untimed warm call per side).
PIPELINE_ROUNDS = 4
PIPELINE_REPEATS = 5


def bench_pipeline_overhead(requests: int) -> dict:
    """Unified-engine wall-time vs calling the experiment directly.

    Both paths run the identical 12-cell Table-5 grid (sequential, no
    cache) on the columnar backend, whose ~10-30 ms grids leave the
    spec layer's ~1 ms visible (the event backend's seconds-long grids
    buried it in noise).  The direct side builds the cells, runs them
    and folds them into the table itself; the difference is what the
    declarative spec layer — size resolution, grid validation, the
    reduce/render hooks — costs per run.

    Each side is the median and IQR of its runs under
    :func:`_timed_repeats` (GC paused).  The sides alternate in
    :data:`PIPELINE_ROUNDS` rounds of :data:`PIPELINE_REPEATS` runs,
    the order flipping each round, so slow drift (page cache, CPU
    frequency) lands on both.  The overhead is the difference of the
    medians; when it is smaller than the larger of the two IQRs it is
    below this machine's measurement floor, and the honest report is
    0.0 with the floor alongside, not a sign drawn from noise.
    """
    spec = get_spec("table5")
    options = ExperimentOptions(
        seed=3, requests=requests, jobs=1, backend="columnar"
    )

    def run_engine() -> None:
        run_experiment(spec, options)

    def run_direct() -> None:
        cells = release_pair_cells(
            "table5", "correlated", seed=3, requests=requests,
            profile=paper_profile(), backend="columnar",
        )
        SimulationTable(label=TABLE5_LABEL, results=run_cells(cells))

    samples: dict = {"engine": [], "direct": []}
    for round_index in range(PIPELINE_ROUNDS):
        pair = [("engine", run_engine), ("direct", run_direct)]
        if round_index % 2:
            pair.reverse()
        for name, fn in pair:
            samples[name].extend(_timed_repeats(fn, PIPELINE_REPEATS))
    engine = _quartiles(samples["engine"])
    direct = _quartiles(samples["direct"])
    difference = engine["median_seconds"] - direct["median_seconds"]
    floor = max(engine["iqr_seconds"], direct["iqr_seconds"])
    resolved = abs(difference) > floor
    overhead = difference if resolved else 0.0
    return {
        "requests_per_cell": requests,
        "backend": "columnar",
        "repeats": PIPELINE_ROUNDS * PIPELINE_REPEATS,
        "engine": engine,
        "direct": direct,
        "overhead_seconds": round(overhead, 5),
        "overhead_below_noise": not resolved,
        "noise_floor_seconds": round(floor, 5),
        "overhead_ratio": round(
            1.0 + overhead / direct["median_seconds"], 3
        ),
    }


#: The grids the warm-replay bench re-reads, and its timed runs of each.
WARM_SPECS = ("table5", "table6", "fidelity", "multirelease")
WARM_REPEATS = 41


def bench_warm_replay() -> dict:
    """Warm replay of the fast grid mix from a cache filled once.

    table5, table6, fidelity and multirelease at ``--fast`` (seed 1) run
    once cold into a fresh result cache; each grid then re-runs warm —
    every cell a cache hit, so only the cell build, cache addressing and
    reads, reduce and render run — as median and IQR of
    :data:`WARM_REPEATS` runs with GC paused.  ``cells_per_sec`` is the
    mix's cells over the sum of its grids' medians.  One more warm run
    per grid, with a registry attached, counts the misses (must be 0).
    """
    specs = {}
    cells_total = 0
    seconds_total = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for name in WARM_SPECS:
            spec = get_spec(name)
            options = ExperimentOptions(
                seed=1, fast=True, cache=ResultCache(tmp)
            )
            cells = run_experiment(spec, options).cells

            def replay() -> None:
                run_experiment(spec, options)

            samples = _timed_repeats(replay, WARM_REPEATS)
            median = float(np.median(samples))
            registry = MetricsRegistry()
            run_experiment(spec, replace(
                options, cache=ResultCache(tmp, metrics=registry),
            ))
            counters = registry.as_dict()["counters"]
            specs[name] = {
                "cells": cells,
                **_quartiles(samples),
                "cells_per_sec": round(cells / median),
                "cache_misses": int(counters.get("cache.miss", 0)),
            }
            cells_total += cells
            seconds_total += median
    return {
        "repeats": WARM_REPEATS,
        "specs": specs,
        "cells": cells_total,
        "cells_per_sec": round(cells_total / seconds_total),
    }


def grid_metrics_snapshot(requests: int, jobs: int) -> dict:
    """Operational metrics of one 12-cell grid run at *jobs* workers.

    Cell-level kernel counters only land in the registry on the inline
    path (worker processes cannot report back), but the pool gauges
    (``pool.jobs``, ``pool.utilization``) describe the actual executor,
    so the snapshot runs at the benchmark's ``--jobs`` value.
    """
    registry = MetricsRegistry()
    table5_grid(requests, jobs, "event", metrics=registry)
    return registry.as_dict()


def bench_lint(src_dir: Path) -> dict:
    """Wall-time and file count for one linter pass over ``src/``.

    Times both passes that gate CI: the per-file rules over ``src/``
    and the whole-program (REPRO2xx) analysis over ``src/repro`` —
    the latter builds a full symbol table / call graph per run, so its
    cost is tracked separately.
    """
    run_lint([str(src_dir)])  # warm: imports, rule construction
    started = time.perf_counter()
    run = run_lint([str(src_dir)])
    elapsed = time.perf_counter() - started
    program_dir = src_dir / "repro"
    run_program_lint([str(program_dir)])  # warm
    started = time.perf_counter()
    program_run = run_program_lint([str(program_dir)])
    program_elapsed = time.perf_counter() - started
    return {
        "version": LINT_VERSION,
        "files": run.files_checked,
        "findings": len(run.findings),
        "seconds": round(elapsed, 4),
        "files_per_sec": round(run.files_checked / elapsed),
        "program": {
            "files": program_run.files_checked,
            "findings": len(program_run.findings),
            "seconds": round(program_elapsed, 4),
            "files_per_sec": round(
                program_run.files_checked / program_elapsed
            ),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=5_000,
                        help="requests per benchmark cell (default 5000)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI (1000-request cells)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the scaling measurement")
    parser.add_argument("--output", default="BENCH_engine.json",
                        help="output path (default BENCH_engine.json)")
    args = parser.parse_args(argv)
    requests = 1_000 if args.quick else args.requests

    kernel = bench_kernel_events()
    cell = _cell_pair(requests)
    modes = bench_modes(requests)
    registry_fallback = bench_registry_fallback(
        300 if args.quick else 500
    )
    service_load = bench_service_load(
        20_000 if args.quick else 1_000_000, requests
    )
    store = bench_store()
    sequential = bench_grid(requests, jobs=1)
    parallel = bench_grid(requests, jobs=args.jobs)
    grid_backends = bench_grid_backends(requests, jobs=args.jobs)
    campaign = bench_campaign(
        21 if args.quick else 84, 200
    )
    arena_draw = bench_arena_draw()
    resolver = bench_resolver()
    src_dir = Path(__file__).resolve().parents[1] / "src"
    bayes = bench_bayes(src_dir)
    startup = bench_startup(src_dir)
    lint = bench_lint(src_dir)
    tracing = bench_tracing_overhead(requests)
    pipeline = bench_pipeline_overhead(requests)
    warm_replay = bench_warm_replay()
    grid_metrics = grid_metrics_snapshot(requests, jobs=args.jobs)

    # ~6 kernel events and exactly one adjudicated demand per request.
    payload = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "kernel": kernel,
        "cell": {
            **cell,
            "demands_per_sec": round(
                requests / cell["event"]["median_seconds"]
            ),
            "columnar_demands_per_sec": round(
                requests / cell["columnar"]["median_seconds"]
            ),
        },
        "modes": modes,
        "registry_fallback": registry_fallback,
        "service_load": service_load,
        "store": store,
        "grid": {
            "cells": 12,
            "requests_per_cell": requests,
            "jobs": args.jobs,
            "repeats": SCALING_REPEATS,
            "sequential": sequential,
            "parallel": parallel,
            "scaling": round(
                sequential["median_seconds"] / parallel["median_seconds"], 2
            ),
            "backends": grid_backends["backends"],
            "speedup_batched_vs_event": grid_backends[
                "speedup_batched_vs_event"
            ],
        },
        "campaign": campaign,
        "arena_draw": arena_draw,
        "resolver": resolver,
        "bayes": bayes,
        "startup": startup,
        "lint": lint,
        "pipeline": pipeline,
        "warm_replay": warm_replay,
        "obs": {
            "tracing": tracing,
            "grid_metrics": grid_metrics,
        },
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
