"""Output checks behind the benchmark's ``failed`` count.

Every check returns a list of problems (empty = correct) and runs
outside the timed window.

* Backend-aware grids (sweep, campaign): sampled cells are re-resolved
  on the event kernel, the reference oracle, and compared IEEE-bit with
  the result the grid persisted.
* Replay: the warm grid's rendered text must be byte-equal to the cold
  grid's.
* Assessment: every cell's final checkpoint is re-derived by a dense
  evaluation of the paper's eq. (2)-(6) written here, independent of
  ``repro.bayes``; a canary Table 2 must equal the text recorded in
  ``reference/table2.json`` at the commit that defined the benchmark.
* Service: every operating-mode cell must pass its own cross-check
  against the simulation reference.
"""

import dataclasses
import json
import math
import os
import random
import struct
from typing import Any, Dict, List, Sequence

import numpy as np
from scipy import stats

from repro.experiments.scenarios import scenario_1, scenario_2
from repro.experiments.service_load import MODE_NAMES
from repro.pipeline import get_spec
from repro.runtime.cache import ResultCache
from perfbench.workloads import GridRun

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference", "table2.json")

#: Relative tolerance on re-derived posterior confidences: the dense
#: evaluation here sums in its own order, so the last bits may differ.
CONFIDENCE_RTOL = 1e-9


def bits_equal(left: Any, right: Any) -> bool:
    """Structural equality with floats compared bit for bit."""
    if isinstance(left, float) or isinstance(right, float):
        if not (isinstance(left, float) and isinstance(right, float)):
            return False
        return struct.pack("<d", left) == struct.pack("<d", right)
    if type(left) is not type(right):
        return False
    if isinstance(left, np.ndarray):
        return (
            left.dtype == right.dtype
            and left.shape == right.shape
            and left.tobytes() == right.tobytes()
        )
    if isinstance(left, dict):
        return left.keys() == right.keys() and all(
            bits_equal(left[key], right[key]) for key in left
        )
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            bits_equal(a, b) for a, b in zip(left, right)
        )
    if dataclasses.is_dataclass(left) or hasattr(left, "__dict__"):
        return bits_equal(vars(left), vars(right))
    if hasattr(left, "__slots__"):
        return all(
            bits_equal(getattr(left, name), getattr(right, name))
            for name in left.__slots__
        )
    return bool(left == right)


def check_event_sample(
    run: GridRun, cache: ResultCache, rng: random.Random
) -> List[str]:
    """Re-resolve one random cell of *run* on the event kernel."""
    spec = get_spec(run.grid.spec)
    options = run.grid.options()
    cells = spec.build_cells(options, spec.sizes(options))
    index = rng.randrange(len(cells))
    cell = cells[index]
    label = f"{run.grid.spec} seed={run.grid.seed} cell {index}"
    hit, persisted = cache.get(cell.experiment, cell.key)
    if not hit:
        return [f"{label}: result missing from the cache"]
    reference = cell.fn(**dict(cell.kwargs, backend="event"))
    if not bits_equal(persisted, reference):
        return [f"{label}: differs from the event kernel"]
    return []


def check_same_text(run: GridRun, expected_sha256: str, what: str) -> List[str]:
    """The grid's rendered text must hash to *expected_sha256*."""
    if run.text_sha256 != expected_sha256:
        return [f"{run.grid.spec} seed={run.grid.seed}: {what} text differs"]
    return []


# -- assessment: dense eq. (2)-(6) -------------------------------------------


def _prior_axis(prior: Any, points: int) -> tuple:
    """Midpoints and normalised cdf-difference weights of a range-scaled Beta."""
    edges = np.linspace(prior.lower, prior.upper, points + 1)
    unit = np.clip((edges - prior.lower) / (prior.upper - prior.lower), 0.0, 1.0)
    mass = np.diff(stats.beta.cdf(unit, prior.alpha, prior.beta))
    return 0.5 * (edges[:-1] + edges[1:]), mass / mass.sum()


def dense_posterior_marginals(
    prior: Any, grid: Any, counts: Sequence[int]
) -> tuple:
    """Marginal posteriors of pA and pB from eq. (2) on the dense grid.

    ``pAB = q * min(pA, pB)`` with ``q`` uniform on [0, 1] (the paper's
    indifference prior), multinomial likelihood over the four Table-1
    cells with counts ``(both fail, only A, only B, neither)``.
    """
    pa, wa = _prior_axis(prior.marginal_a, grid.n_pa)
    pb, wb = _prior_axis(prior.marginal_b, grid.n_pb)
    q = (np.arange(grid.n_q) + 0.5) / grid.n_q
    pa3, pb3 = pa[:, None, None], pb[None, :, None]
    p11 = q[None, None, :] * np.minimum(pa3, pb3)
    cells = (p11, pa3 - p11, pb3 - p11, 1.0 - pa3 - pb3 + p11)
    with np.errstate(divide="ignore"):
        log_post = np.log(wa)[:, None, None] + np.log(wb)[None, :, None]
        log_post = np.broadcast_to(log_post, p11.shape).copy()
        for count, probability in zip(counts, cells):
            if count:  # 0^0 = 1: an empty cell admits probability zero
                log_post += count * np.log(np.maximum(probability, 0.0))
    posterior = np.exp(log_post - log_post.max())
    posterior /= posterior.sum()
    return pa, posterior.sum(axis=(1, 2)), pb, posterior.sum(axis=(0, 2))


def _percentile(values: np.ndarray, mass: np.ndarray, level: float) -> float:
    index = int(np.searchsorted(np.cumsum(mass), level))
    return float(values[min(index, len(values) - 1)])


def check_table2(run: GridRun) -> List[str]:
    """Re-derive every cell's final checkpoint of a Table 2 grid."""
    options = run.grid.options()
    grid = get_spec("table2").sizes(options)["grid"]
    scenarios = {s.name: s for s in (scenario_1(), scenario_2())}
    problems = []
    if len(run.value.histories) != 6:
        problems.append(f"table2: {len(run.value.histories)} cells, expected 6")
    for (name, detection), history in run.value.histories.items():
        label = f"table2 seed={run.grid.seed} {name}/{detection}"
        record = history.final()
        counts = record.counts
        tally = (
            counts.both_fail, counts.only_first_fails,
            counts.only_second_fails, counts.both_succeed,
        )
        if min(tally) < 0 or sum(tally) != record.demands:
            problems.append(f"{label}: counts {tally} do not sum to {record.demands}")
            continue
        if record.demands != run.grid.requests:
            problems.append(f"{label}: stream ended at {record.demands}")
        pa, mass_a, pb, mass_b = dense_posterior_marginals(
            scenarios[name].prior, grid, tally
        )
        expected = {
            "percentile_a_99": _percentile(pa, mass_a, 0.99),
            "percentile_b_99": _percentile(pb, mass_b, 0.99),
            "percentile_b_90": _percentile(pb, mass_b, 0.90),
        }
        for field, value in expected.items():
            if getattr(record, field) != value:
                problems.append(
                    f"{label}: {field} {getattr(record, field)!r} != {value!r}"
                )
        for target, confidence in record.confidence_b_at.items():
            value = float(mass_b[pb <= target].sum())
            if not math.isclose(confidence, value, rel_tol=CONFIDENCE_RTOL, abs_tol=1e-15):
                problems.append(
                    f"{label}: P(pB <= {target}) {confidence!r} != {value!r}"
                )
    return problems


def reference_key(run: GridRun) -> str:
    grid = run.grid
    return f"demands={grid.requests},fast={grid.fast},seed={grid.seed}"


def load_references() -> Dict[str, str]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_reference(run: GridRun, references: Dict[str, str]) -> List[str]:
    """The canary Table 2 must render exactly as recorded."""
    expected = references.get(reference_key(run))
    if expected is None:
        return [f"no recorded Table 2 for {reference_key(run)}"]
    if run.text != expected:
        return [f"table2 {reference_key(run)}: differs from the recorded text"]
    return []


def check_service(run: GridRun) -> List[str]:
    """Every operating mode ran and passed its own cross-check."""
    results = run.value.results
    problems = []
    modes = [result.mode for result in results]
    if modes != list(MODE_NAMES):
        problems.append(f"service_load modes {modes}, expected {list(MODE_NAMES)}")
    for result in results:
        if not result.ok:
            problems.append(
                f"service_load seed={run.grid.seed} mode={result.mode}: "
                + "; ".join(result.mismatches)
            )
    return problems
