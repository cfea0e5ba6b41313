"""Truncated (range-scaled) Beta distributions.

The paper defines its pfd priors as Beta distributions *"defined in the
range [0, 0.002]"* (Scenario 1) or *"[0, 0.01]"* (Scenario 2): a standard
Beta on [0, 1] linearly rescaled onto ``[lower, upper]``.  This module
applies that affine change of variable to the regularized incomplete beta
function and its inverse, and exposes exactly the operations the assessors
need: cdf (and prior mass on a grid), inverse cdf, mean, variance and
sampling.

The Beta law is evaluated with the public :mod:`scipy.special` ufuncs
``betainc`` and ``betaincinv``, which return the same IEEE doubles as
``scipy.stats.beta``'s cdf and ppf (pinned by
``tests/bayes/test_beta_oracle.py``).  :mod:`scipy.special` is imported
on first use, so a process that never evaluates a Beta law — a
simulation sweep, a cache replay — never loads scipy at all.
"""

from typing import Optional

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import check_positive


class TruncatedBeta:
    """Beta(alpha, beta) rescaled to the interval ``[lower, upper]``.

    If ``X ~ Beta(alpha, beta)`` on [0, 1] then this distribution is that
    of ``lower + (upper - lower) * X``.

    Example (the paper's Scenario 1 old-release prior):

    >>> prior_a = TruncatedBeta(20, 20, upper=0.002)
    >>> round(prior_a.mean, 6)
    0.001
    """

    def __init__(
        self,
        alpha: float,
        beta: float,
        upper: float,
        lower: float = 0.0,
    ):
        self.alpha = check_positive(alpha, "alpha")
        self.beta = check_positive(beta, "beta")
        if not 0.0 <= lower < upper:
            raise ValidationError(
                f"need 0 <= lower < upper, got [{lower!r}, {upper!r}]"
            )
        self.lower = float(lower)
        self.upper = float(upper)
        self._width = self.upper - self.lower

    @property
    def mean(self) -> float:
        """E[X] = lower + width * alpha / (alpha + beta)."""
        return self.lower + self._width * self.alpha / (self.alpha + self.beta)

    @property
    def variance(self) -> float:
        a, b = self.alpha, self.beta
        unit_var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        return self._width ** 2 * unit_var

    def cdf(self, x) -> np.ndarray:
        """P(X <= x)."""
        from scipy.special import betainc

        unit = (np.asarray(x, dtype=float) - self.lower) / self._width
        return betainc(self.alpha, self.beta, np.clip(unit, 0.0, 1.0))

    def ppf(self, q) -> np.ndarray:
        """Inverse cdf: the paper's percentiles (e.g. ``ppf(0.99)``)."""
        from scipy.special import betaincinv

        return self.lower + self._width * betaincinv(self.alpha, self.beta, q)

    def sample(
        self, rng: np.random.Generator, size: Optional[int] = None
    ):
        """Draw samples using *rng*."""
        draws = rng.beta(self.alpha, self.beta, size=size)
        return self.lower + self._width * draws

    def _edges(self, points: int) -> np.ndarray:
        """The ``points + 1`` edges of equal-width cells over the support."""
        if points <= 0:
            raise ValidationError(f"points must be > 0: {points!r}")
        return np.linspace(self.lower, self.upper, points + 1)

    def grid(self, points: int) -> np.ndarray:
        """Cell-midpoint grid over the support, for quadrature."""
        edges = self._edges(points)
        return 0.5 * (edges[:-1] + edges[1:])

    def grid_weights(self, points: int) -> np.ndarray:
        """Prior probability mass of each midpoint cell (sums to 1).

        Computed from cdf differences rather than pdf × width so that very
        peaked priors (e.g. Beta(20, 20)) lose no mass to discretisation.
        ``betainc`` can step down by an ulp where the cdf is flat at 1,
        so the edges' cdf is made non-decreasing first: no cell gets a
        negative weight, and the total mass is unchanged.
        """
        mass = np.diff(np.maximum.accumulate(self.cdf(self._edges(points))))
        total = mass.sum()
        if total <= 0.0:
            raise ValidationError("prior mass vanished on the grid")
        return mass / total

    def __repr__(self) -> str:
        return (
            f"TruncatedBeta(alpha={self.alpha!r}, beta={self.beta!r}, "
            f"range=[{self.lower!r}, {self.upper!r}])"
        )
