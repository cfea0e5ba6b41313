"""Parallel experiment runtime: cell executor, result cache, sampling.

The paper's evaluation is a grid of independent simulation cells (Tables
5-6 are 4 runs x 3 TimeOuts x 10,000 requests; Figs 7-8 are Monte-Carlo
assessment trajectories).  This package makes that grid cheap:

* :mod:`repro.runtime.parallel` — a process-pool cell executor with
  deterministic per-cell seed derivation; ``jobs=1`` runs inline and is
  bit-identical to any ``jobs=N``;
* :mod:`repro.runtime.cache` — an on-disk result cache keyed by
  (experiment, params, requests, seed) so repeated benchmark / report
  runs skip completed cells;
* :mod:`repro.runtime.sampling` — pre-drawn (vectorised) per-demand
  randomness scripts consumed by the event-driven simulations in place
  of one scalar RNG call per request.
"""

from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.parallel import CellSpec, resolve_jobs, run_cells
from repro.runtime.sampling import (
    DemandScript,
    ScriptedDistribution,
    ScriptedJointOutcomeModel,
    build_demand_script,
)

__all__ = [
    "CellSpec",
    "DemandScript",
    "ResultCache",
    "ScriptedDistribution",
    "ScriptedJointOutcomeModel",
    "build_demand_script",
    "default_cache_dir",
    "resolve_jobs",
    "run_cells",
]
