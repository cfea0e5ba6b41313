"""The benchmark's workloads: which grids run, at what size, in what order.

Every workload is a closed loop: one process starts the next grid
through ``repro.pipeline.run_experiment`` when the previous one
returns.  Grid seeds are consecutive integers from a base derived from
the workload name and the ``--seed`` argument, so a seed always yields
the same grid sequence and two seeds yield different ones.

* ``sweep`` — the four backend-aware grids at their full per-cell
  request counts, cold, with a result cache and a run store in fresh
  directories: the resolver and the script arena dominate.
* ``campaign`` — the same grid mix at 200 requests per cell, cold:
  cache puts and store commits dominate.
* ``replay`` — fresh processes re-run grids a cold fill already wrote
  (20 requests per cell), each reading every grid once: the cache read
  path and the pipeline's reduce/render dominate.
* ``assessment`` — Table 2 on the paper's 160x160x64 posterior grid, no
  cache, ``jobs`` = CPU count: the white-box posterior dominates and its
  cells reach the process pool.
* ``service`` — the ``service_load`` grid (four operating modes through
  the async middleware on the virtual clock), no cache, ``jobs`` = 1.
"""

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.pipeline import ExperimentOptions, get_spec, run_experiment
from repro.runtime.cache import ResultCache
from repro.store.log import RunStore
from perfbench.metrics import WORKLOADS

#: The backend-aware grids of the sweep, campaign and replay mix.
GRID_MIX = ("table5", "table6", "fidelity", "multirelease")

#: Per-cell requests of the campaign's small-cell mix.
SMALL_CELL_REQUESTS = 200

#: Per-cell requests of the replay fill.  A cached cell result has the
#: same size at any request count, so the warm pass reads the same
#: bytes; fewer requests only make the untimed fill cheaper, which buys
#: more grids to read in the timed window.
REPLAY_REQUESTS = 20

#: Demand-stream length of each Table 2 cell; it sets the grid's length
#: (the paper's stream is 50,000 demands, ~54 s per grid here).
ASSESSMENT_DEMANDS = 3_000

#: Requests per operating mode in one service_load grid.
SERVICE_REQUESTS = 2_000

#: Sizes of the ``--tiny`` mode the benchmark's own tests use.
TINY = {"sweep": 300, "small": 50, "assessment": 1_000, "service": 1_000}


@dataclass(frozen=True)
class Grid:
    """One ``run_experiment`` call: the spec and the options it runs under."""

    spec: str
    seed: int
    requests: Optional[int] = None
    fast: bool = False
    jobs: int = 1

    def options(
        self,
        cache: Optional[ResultCache] = None,
        store: Optional[RunStore] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> ExperimentOptions:
        return ExperimentOptions(
            seed=self.seed,
            fast=self.fast,
            requests=self.requests,
            jobs=self.jobs,
            cache=cache,
            store=store,
            metrics=metrics,
        )

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def base_seed(workload: str, seed: int) -> int:
    """First grid seed of a workload run, derived from ``--seed``."""
    digest = hashlib.sha256(f"perfbench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def uses_persistence(workload: str) -> bool:
    """Whether the workload's grids run with a result cache and run store."""
    return workload in ("sweep", "campaign", "replay")


def grid_at(workload: str, seed: int, index: int, tiny: bool = False) -> Grid:
    """The *index*-th grid of a workload run."""
    base = base_seed(workload, seed)
    if workload in ("sweep", "campaign", "replay"):
        spec = GRID_MIX[index % len(GRID_MIX)]
        round_seed = base + index // len(GRID_MIX)
        if tiny:
            requests = TINY["sweep"] if workload == "sweep" else TINY["small"]
        else:
            requests = {
                "sweep": None,
                "campaign": SMALL_CELL_REQUESTS,
                "replay": REPLAY_REQUESTS,
            }[workload]
        return Grid(spec, round_seed, requests)
    if workload == "assessment":
        return Grid(
            "table2",
            base + index,
            TINY["assessment"] if tiny else ASSESSMENT_DEMANDS,
            fast=tiny,
            jobs=os.cpu_count() or 1,
        )
    if workload == "service":
        return Grid(
            "service_load",
            base + index,
            TINY["service"] if tiny else SERVICE_REQUESTS,
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class GridRun:
    """What one grid produced and how long it took.

    ``value`` and ``text`` are kept only when a check needs them, so a
    long closed loop does not grow the process the benchmark measures.
    """

    grid: Grid
    latency: float
    cells: int = 0
    demands: int = 0
    text_sha256: str = ""
    text: str = ""
    value: Any = None
    error: Optional[str] = None

    def record(self) -> dict:
        return {
            **self.grid.as_dict(),
            "latency": self.latency,
            "cells": self.cells,
            "demands": self.demands,
            "text_sha256": self.text_sha256,
            "error": self.error,
        }


def run_grid(
    grid: Grid,
    cache: Optional[ResultCache] = None,
    store: Optional[RunStore] = None,
    metrics: Optional[MetricsRegistry] = None,
    keep: bool = False,
) -> GridRun:
    """Run one grid; an exception is recorded, not raised.

    With *keep*, the result object and rendered text stay on the run.
    """
    spec = get_spec(grid.spec)
    options = grid.options(cache, store, metrics)
    start = time.perf_counter()
    try:
        outcome = run_experiment(spec, options)
    except Exception as error:  # one failed operation, not a crashed run
        return GridRun(
            grid, time.perf_counter() - start,
            error=f"{type(error).__name__}: {error}",
        )
    latency = time.perf_counter() - start
    per_cell = spec.sizes(options)[spec.workload_key]
    return GridRun(
        grid,
        latency,
        cells=outcome.cells,
        demands=outcome.cells * int(per_cell),
        text_sha256=hashlib.sha256(outcome.text.encode()).hexdigest(),
        text=outcome.text if keep else "",
        value=outcome.value if keep else None,
    )


def closed_loop(
    workload: str,
    seed: int,
    start: int,
    budget: float,
    tiny: bool,
    step: Callable[[Grid], GridRun],
) -> List[GridRun]:
    """Run grids back to back through *step* until *budget* seconds pass."""
    runs: List[GridRun] = []
    began = time.perf_counter()
    index = start
    while not runs or time.perf_counter() - began < budget:
        runs.append(step(grid_at(workload, seed, index, tiny)))
        index += 1
    return runs
