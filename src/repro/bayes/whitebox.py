"""White-box (two-release) Bayesian inference — paper eq. (2)-(6).

Two releases run side by side behind the managed-upgrade middleware; on
each demand the monitoring subsystem records which of the Table-1 events
occurred.  Given counts ``(r1, r2, r3)`` in ``N`` demands the posterior

    f(pA, pB, pAB | N, r1, r2, r3)
        proportional to  f(pA, pB, pAB) * L(N, r1, r2, r3 | pA, pB, pAB)

is evaluated on a dense tensor grid; the likelihood is multinomial over
the four cell probabilities

    p11 = pAB,  p10 = pA - pAB,  p01 = pB - pAB,  p00 = 1 - pA - pB + pAB.

Marginal posteriors (eq. 3-5) come from summing the grid; confidences
(eq. 6) and percentiles from cumulative sums.  The reparameterisation
``pAB = q * min(pA, pB)``, ``q ~ U(0, 1)`` makes the paper's indifference
prior a product measure on the grid.

Evaluation.  :class:`WhiteBoxAssessor` allocates its grids once: two
log-probability tables and one posterior buffer, three float64 arrays
of the grid's shape (≈ 39 MB at the default 160×160×64), plus a scratch
block.  With m = min(pA, pB), ``p11 = q·m`` and the smaller release's
solo failure (p10 where pA ≤ pB, p01 where pB < pA) is ``m − q·m``, so
both are kept compact: ``(n_pa + n_pb) × n_q`` tables of ``log(q·m)``
and ``log(m − q·m)``, m over pA's grid then pB's, and for each pA row
the first pB index where pB ≥ pA (both grids ascend).  The larger
release's solo failure fills one full table, the *cross* table
``log(max(pA, pB) − q·m)`` (log p10 below a row's split, log p01 from
it on), and ``log p00`` the other.  ``pAB`` itself is built on first
use: only the pAB marginal reads it.  The two full tables are built
block by block of :data:`BLOCK_ROWS` pA rows, straight into place, from
a block-sized ``pAB`` scratch.  A posterior evaluation makes two passes
over the same blocks: the first writes the log-prior into the buffer,
adds the non-zero ``r·log p`` of p11, p10 and p01 to each pA row's two
spans, from the compact rows or the cross table, then ``r4·log p00``,
and tracks the peak; the second subtracts the peak and exponentiates.
The total, the normalising division and the marginal sums then run as
whole-grid numpy calls.  Every elementwise operation gives the same
bits wherever in the grid it runs, ``max`` and ``min`` are exact, the
terms are added in the same order, the peak is an exact maximum, and
each reduction still sees the whole grid in memory order — so tables,
posteriors, percentiles and confidences are IEEE-bit identical to
evaluating every step over the whole grid at once, without its dozen
grid-sized temporaries.  The array :meth:`WhiteBoxAssessor._posterior`
returns *is* that buffer: the next evaluation overwrites it in place.
The table build is the costly part of a construction, so the
sequential runner (:mod:`repro.bayes.runner`) keeps one assessor per
process for the evaluations that share its prior and grid, and an
assessment grid evaluates each distinct count vector of its cells once
(:func:`repro.bayes.evaluation_plan.assess_planned`).  Every
:meth:`WhiteBoxAssessor.checkpoint_summary` call is one evaluation.
"""

import functools
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import InferenceError
from repro.bayes.counts import JointCounts
from repro.bayes.priors import GridSpec, WhiteBoxPrior


#: pA rows per block of the table build and of both posterior passes.
#: At the default grid a row is 160×64 cells, so a block's float64
#: scratch stays near 320 KB and in cache: larger blocks spill out of
#: cache, smaller ones pay numpy's per-call overhead more often.  A
#: fixed constant, not a tuning knob.
BLOCK_ROWS = 4


def _safe_log(
    values: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """log(values) with -inf (not nan) for non-positive entries.

    Writes into *out* (the shape of *values*) when given.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(values, out=out)
    np.copyto(logs, -np.inf, where=np.logical_not(values > 0.0))
    return logs


class WhiteBoxAssessor:
    """Sequentially updatable trivariate posterior over (pA, pB, pAB).

    Parameters
    ----------
    prior:
        The :class:`WhiteBoxPrior` (truncated-Beta marginals plus the
        uniform-conditional coincidence prior).
    grid:
        Grid resolution; the default resolves the paper's scenarios.

    Example
    -------
    >>> from repro.bayes import TruncatedBeta, WhiteBoxPrior, JointCounts
    >>> prior = WhiteBoxPrior(TruncatedBeta(20, 20, upper=2e-3),
    ...                       TruncatedBeta(2, 3, upper=2e-3))
    >>> assessor = WhiteBoxAssessor(prior)
    >>> assessor.observe(JointCounts(both_fail=1, only_first_fails=4,
    ...                              only_second_fails=2, both_succeed=9993))
    >>> 0 < assessor.confidence_b(1.5e-3) <= 1
    True
    """

    def __init__(self, prior: WhiteBoxPrior, grid: GridSpec = GridSpec()):
        self.prior = prior
        self.grid = grid

        self._pa = prior.marginal_a.grid(grid.n_pa)  # (A,)
        self._pb = prior.marginal_b.grid(grid.n_pb)  # (B,)
        q_edges = np.linspace(0.0, 1.0, grid.n_q + 1)
        self._q = 0.5 * (q_edges[:-1] + q_edges[1:])  # (Q,)

        log_wa = _safe_log(prior.marginal_a.grid_weights(grid.n_pa))
        log_wb = _safe_log(prior.marginal_b.grid_weights(grid.n_pb))
        log_wq = -np.log(grid.n_q)
        self._log_prior = (
            log_wa[:, None, None] + log_wb[None, :, None] + log_wq
        )  # (A, B, 1) broadcastable over Q

        # Compact tables over the smaller value m = min(pA, pB), m over
        # pA's grid then pB's: log p11 = log(q·m), and the smaller
        # release's solo failure log(m − q·m).  Per pA row, the first pB
        # index where pB >= pA.  Both grids ascend (cell midpoints).
        minima = np.concatenate((self._pa, self._pb))[:, None]
        qm = self._q[None, :] * minima
        self._log_qm = _safe_log(qm)
        self._log_m_qm = _safe_log(minima - qm)
        self._split = np.searchsorted(self._pb, self._pa).tolist()

        shape = (grid.n_pa, grid.n_pb, grid.n_q)
        self._log_cross = np.empty(shape)
        self._log_p00 = np.empty(shape)
        self._posterior_buffer = np.empty(shape)
        self._scratch = np.empty((min(BLOCK_ROWS, grid.n_pa),) + shape[1:])
        self._build_tables()

        self._counts = JointCounts()
        self._posterior_cache: Optional[np.ndarray] = None
        self._pab_sort_index: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # observation management
    # ------------------------------------------------------------------

    @property
    def counts(self) -> JointCounts:
        """All observations folded in so far."""
        return self._counts

    def observe(self, counts: JointCounts) -> None:
        """Accumulate new joint observations."""
        self._counts = self._counts + counts
        self._posterior_cache = None

    def replace_counts(self, counts: JointCounts) -> None:
        """Set the *cumulative* counts directly (used by the runner).

        The multinomial likelihood depends only on cumulative counts, so a
        sequential study can jump between checkpoints without replaying
        increments.
        """
        self._counts = counts
        self._posterior_cache = None

    def reset(self) -> None:
        """Drop all observations, reverting to the prior."""
        self._counts = JointCounts()
        self._posterior_cache = None

    # ------------------------------------------------------------------
    # posterior evaluation
    # ------------------------------------------------------------------

    def _blocks(self) -> Iterator[slice]:
        """The pA-row slices both passes and the table build walk."""
        rows = len(self._scratch)
        for start in range(0, self.grid.n_pa, rows):
            yield slice(start, start + rows)

    def _build_tables(self) -> None:
        """Fill the cross table and ``log p00`` in place."""
        pb3 = self._pb[None, :, None]
        q3 = self._q[None, None, :]
        pab_block = np.empty_like(self._scratch)
        for rows in self._blocks():
            pa3 = self._pa[rows, None, None]
            pab = pab_block[: len(pa3)]
            diff = self._scratch[: len(pa3)]
            np.multiply(q3, np.minimum(pa3, pb3), out=pab)
            np.subtract(np.maximum(pa3, pb3), pab, out=diff)
            _safe_log(diff, out=self._log_cross[rows])
            np.add(1.0 - pa3 - pb3, pab, out=diff)
            _safe_log(diff, out=self._log_p00[rows])

    @functools.cached_property
    def _pab(self) -> np.ndarray:
        """``pAB = q·min(pA, pB)`` over the grid, built on first use."""
        pa3 = self._pa[:, None, None]
        pb3 = self._pb[None, :, None]
        return self._q[None, None, :] * np.minimum(pa3, pb3)

    def _add_split_terms(
        self, block: np.ndarray, start: int, compact: tuple, r2: int, r3: int
    ) -> None:
        """Add the p11, p10 and p01 terms to the pA rows of *block* from
        row *start*, in that order.

        *compact* holds r1 × log p11, r2 × pA's rows and r3 × pB's rows
        of log(m − q·m) (``None`` for a zero count).  Below a row's split
        pB is the smaller value, from it on pA is: each term takes the
        smaller value's compact rows (pA's row broadcast over pB) or,
        for the larger release's solo failure, the cross table × r.
        """
        p11, p10, p01 = compact
        p11_pb = None if p11 is None else p11[self.grid.n_pa:]
        for offset, row in enumerate(block):
            index = start + offset
            split = self._split[index]
            below, above = row[:split], row[split:]
            cross = self._log_cross[index]
            term = self._scratch[offset]
            if p11 is not None:
                below += p11_pb[:split]
                above += p11[index]
            if p10 is not None:
                below += np.multiply(cross[:split], r2, out=term[:split])
                above += p10[index]
            if p01 is not None:
                below += p01[:split]
                above += np.multiply(cross[split:], r3, out=term[split:])

    def _posterior(self) -> np.ndarray:
        """The normalised posterior grid for the current counts.

        The array returned is the assessor's posterior buffer: the next
        evaluation (after :meth:`observe`, :meth:`replace_counts` or
        :meth:`reset`) overwrites it in place, so a caller that keeps it
        longer must copy it.
        """
        if self._posterior_cache is not None:
            return self._posterior_cache
        # Multiply only the terms with non-zero exponents: with r=0 a cell
        # probability of exactly zero is still admissible (0^0 = 1).
        r1, r2, r3, r4 = self._counts.as_tuple()
        n_pa = self.grid.n_pa
        compact = (
            self._log_qm * r1 if r1 else None,
            self._log_m_qm[:n_pa] * r2 if r2 else None,
            self._log_m_qm[n_pa:] * r3 if r3 else None,
        )
        log_post = self._posterior_buffer
        peak = -np.inf
        for rows in self._blocks():
            block = log_post[rows]
            np.copyto(block, self._log_prior[rows])
            if r1 or r2 or r3:
                self._add_split_terms(block, rows.start, compact, r2, r3)
            if r4:
                term = self._scratch[: len(block)]
                np.multiply(self._log_p00[rows], r4, out=term)
                np.add(block, term, out=block)
            peak = max(peak, block.max())
        if not np.isfinite(peak):
            raise InferenceError(
                "posterior vanished everywhere: the observations are "
                "impossible under the prior's support"
            )
        for rows in self._blocks():
            block = log_post[rows]
            np.subtract(block, peak, out=block)
            np.exp(block, out=block)
        mass = log_post
        mass /= mass.sum()
        self._posterior_cache = mass
        return mass

    # ------------------------------------------------------------------
    # marginals (paper eq. 3-5)
    # ------------------------------------------------------------------

    def marginal_a(self) -> Tuple[np.ndarray, np.ndarray]:
        """(grid, mass) of the old release's pfd posterior — eq. (4)."""
        return self._pa.copy(), self._posterior().sum(axis=(1, 2))

    def marginal_b(self) -> Tuple[np.ndarray, np.ndarray]:
        """(grid, mass) of the new release's pfd posterior — eq. (5)."""
        return self._pb.copy(), self._posterior().sum(axis=(0, 2))

    def marginal_ab(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted pAB values, mass) of the coincident-failure posterior —
        eq. (3).  pAB varies cell-by-cell, so the marginal is reported over
        the sorted flattened grid."""
        if self._pab_sort_index is None:
            self._pab_sort_index = np.argsort(self._pab, axis=None)
        flat_mass = self._posterior().ravel()[self._pab_sort_index]
        flat_values = self._pab.ravel()[self._pab_sort_index]
        return flat_values, flat_mass

    # ------------------------------------------------------------------
    # confidences (eq. 6) and percentiles
    # ------------------------------------------------------------------

    @staticmethod
    def _confidence(values: np.ndarray, mass: np.ndarray, target: float) -> float:
        return float(mass[values <= target].sum())

    @staticmethod
    def _percentile(
        values: np.ndarray, mass: np.ndarray, level: float
    ) -> float:
        if not 0.0 < level < 1.0:
            raise InferenceError(f"level must be in (0,1): {level!r}")
        cumulative = np.cumsum(mass)
        index = int(np.searchsorted(cumulative, level))
        index = min(index, len(values) - 1)
        return float(values[index])

    def confidence_a(self, target: float) -> float:
        """P(pA <= target | observations)."""
        values, mass = self.marginal_a()
        return self._confidence(values, mass, target)

    def confidence_b(self, target: float) -> float:
        """P(pB <= target | observations)."""
        values, mass = self.marginal_b()
        return self._confidence(values, mass, target)

    def confidence_ab(self, target: float) -> float:
        """P(pAB <= target | observations) — system coincident failure."""
        values, mass = self.marginal_ab()
        return self._confidence(values, mass, target)

    def percentile_a(self, level: float) -> float:
        """T with P(pA <= T) = level (e.g. the paper's TA99%)."""
        values, mass = self.marginal_a()
        return self._percentile(values, mass, level)

    def percentile_b(self, level: float) -> float:
        """T with P(pB <= T) = level (e.g. the paper's TB99%)."""
        values, mass = self.marginal_b()
        return self._percentile(values, mass, level)

    def percentile_ab(self, level: float) -> float:
        """T with P(pAB <= T) = level."""
        values, mass = self.marginal_ab()
        return self._percentile(values, mass, level)

    def checkpoint_summary(
        self,
        levels_a: Sequence[float] = (),
        levels_b: Sequence[float] = (),
        targets_b: Sequence[float] = (),
    ) -> Tuple[List[float], List[float], List[float]]:
        """All of one checkpoint's queries from one posterior evaluation.

        Returns ``(percentiles_a, percentiles_b, confidences_b)`` for the
        requested levels/targets.  Each single-release marginal mass is
        reduced from the posterior grid exactly once and reused for every
        query — the same reductions, in the same order, as calling
        :meth:`percentile_a` / :meth:`percentile_b` / :meth:`confidence_b`
        individually, so the results are bit-identical; but a sequential
        study's checkpoint loop pays one grid reduction per marginal
        instead of one per query.
        """
        posterior = self._posterior()
        mass_a = posterior.sum(axis=(1, 2))
        mass_b = posterior.sum(axis=(0, 2))
        return (
            [self._percentile(self._pa, mass_a, level) for level in levels_a],
            [self._percentile(self._pb, mass_b, level) for level in levels_b],
            [self._confidence(self._pb, mass_b, t) for t in targets_b],
        )

    # ------------------------------------------------------------------
    # point summaries
    # ------------------------------------------------------------------

    def posterior_mean_a(self) -> float:
        """Posterior E[pA]."""
        values, mass = self.marginal_a()
        return float(np.dot(values, mass))

    def posterior_mean_b(self) -> float:
        """Posterior E[pB]."""
        values, mass = self.marginal_b()
        return float(np.dot(values, mass))

    def posterior_mean_ab(self) -> float:
        """Posterior E[pAB] — expected 1-out-of-2 system pfd."""
        return float(np.sum(self._pab * self._posterior()))

    def __repr__(self) -> str:
        return (
            f"WhiteBoxAssessor(grid={self.grid!r}, counts="
            f"{self._counts.as_tuple()!r})"
        )
