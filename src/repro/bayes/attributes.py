"""Confidence in availability and responsiveness (paper §2.2, §6.1).

The paper develops 'confidence in correctness' in detail and lists
availability and responsiveness as the other dependability attributes a
consumer should be able to quantify ("the user can read back the
confidence associated with each of the deployed releases ... for
different dependability attributes (e.g. confidence in correctness,
confidence in availability, etc.)", §6.1).  This module supplies those
two assessors with the same Bayesian machinery:

* :class:`AvailabilityAssessor` — per demand the release either responds
  within the TimeOut or not: a Bernoulli process whose success
  probability gets a Beta posterior; confidence is
  ``P(availability >= target | observations)``.
* :class:`ResponsivenessAssessor` — per *collected* response, either it
  met a deadline or not; same conjugate treatment over
  ``P(response time <= deadline)``, plus empirical latency quantiles.

The posterior tail areas are the :mod:`scipy.special` ufuncs ``betaincc``
(survival function) and ``betaincinv`` (inverse cdf), imported on first
use as in :mod:`repro.bayes.beta`.
"""

import bisect
from typing import List, Tuple

import numpy as np

from repro.common.errors import InferenceError
from repro.common.validation import check_in_range, check_positive


class AvailabilityAssessor:
    """Beta-Bernoulli confidence in a release's availability.

    Parameters
    ----------
    prior_alpha, prior_beta:
        Beta prior over the probability of responding within TimeOut.
        The default Beta(1, 1) is the uniform prior; providers with
        deployment history should encode it here.
    """

    def __init__(self, prior_alpha: float = 1.0, prior_beta: float = 1.0):
        self.prior_alpha = check_positive(prior_alpha, "prior_alpha")
        self.prior_beta = check_positive(prior_beta, "prior_beta")
        self.responded = 0
        self.missed = 0

    @property
    def demands(self) -> int:
        """Total demands observed."""
        return self.responded + self.missed

    def observe(self, responded: bool) -> None:
        """Record one demand's availability outcome."""
        if responded:
            self.responded += 1
        else:
            self.missed += 1

    def observe_many(self, responded: int, missed: int) -> None:
        """Record a batch of outcomes."""
        if responded < 0 or missed < 0:
            raise InferenceError(
                f"counts must be non-negative: {responded!r}, {missed!r}"
            )
        self.responded += int(responded)
        self.missed += int(missed)

    def _posterior(self) -> Tuple[float, float]:
        """Beta posterior (alpha, beta) over the availability."""
        return (
            self.prior_alpha + self.responded,
            self.prior_beta + self.missed,
        )

    def confidence(self, target_availability: float) -> float:
        """P(availability >= target | observations)."""
        from scipy.special import betaincc

        check_in_range(target_availability, 0.0, 1.0, "target_availability")
        return float(betaincc(*self._posterior(), target_availability))

    def lower_bound(self, confidence_level: float) -> float:
        """Availability bound L with P(availability >= L) = level."""
        from scipy.special import betaincinv

        check_in_range(confidence_level, 0.0, 1.0, "confidence_level")
        return float(betaincinv(*self._posterior(), 1.0 - confidence_level))

    def _trajectory_params(
        self, responded
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior (alpha, beta) vectors after each successive outcome.

        The conjugate recursion collapses to cumulative sums over the
        response/miss indicators, so a whole checkpoint grid is two
        cumsum arrays instead of a Python loop of updates.
        """
        indicators = np.asarray(responded, dtype=bool).ravel()
        successes = np.cumsum(indicators, dtype=np.int64)
        totals = np.arange(1, indicators.size + 1, dtype=np.int64)
        return (
            self.prior_alpha + self.responded + successes,
            self.prior_beta + self.missed + (totals - successes),
        )

    def confidence_trajectory(
        self, responded, target_availability: float
    ) -> np.ndarray:
        """P(availability >= target) after each successive outcome.

        *responded* is the per-demand indicator vector in observation
        order; entry ``i`` is the confidence an assessor would report
        after folding outcomes ``0..i`` into the current state.  The
        whole trajectory is one batched ``sf`` evaluation — bit-identical
        to observing one at a time and calling :meth:`confidence` — and
        the assessor itself is not mutated.
        """
        from scipy.special import betaincc

        check_in_range(target_availability, 0.0, 1.0, "target_availability")
        alphas, betas = self._trajectory_params(responded)
        return np.asarray(
            betaincc(alphas, betas, target_availability), dtype=float
        )

    def lower_bound_trajectory(
        self, responded, confidence_level: float
    ) -> np.ndarray:
        """Availability bound trajectory: one batched ``ppf`` evaluation
        over the checkpoint grid (same contract as
        :meth:`confidence_trajectory`)."""
        from scipy.special import betaincinv

        check_in_range(confidence_level, 0.0, 1.0, "confidence_level")
        alphas, betas = self._trajectory_params(responded)
        return np.asarray(
            betaincinv(alphas, betas, 1.0 - confidence_level), dtype=float
        )

    def posterior_mean(self) -> float:
        """Posterior expectation of the availability."""
        alpha, beta = self._posterior()
        return alpha / (alpha + beta)

    def __repr__(self) -> str:
        return (
            f"AvailabilityAssessor(responded={self.responded}, "
            f"missed={self.missed})"
        )


class ResponsivenessAssessor:
    """Confidence that responses meet a latency deadline.

    Tracks, for one release, (a) a Beta posterior over
    ``P(response time <= deadline)`` and (b) the raw latencies for
    empirical quantile reporting.

    Parameters
    ----------
    deadline:
        The responsiveness target in seconds (e.g. an SLA bound); note
        this is a *content* deadline, typically tighter than the
        middleware TimeOut.
    """

    def __init__(
        self,
        deadline: float,
        prior_alpha: float = 1.0,
        prior_beta: float = 1.0,
    ):
        self.deadline = check_positive(deadline, "deadline")
        self.prior_alpha = check_positive(prior_alpha, "prior_alpha")
        self.prior_beta = check_positive(prior_beta, "prior_beta")
        self.on_time = 0
        self.late = 0
        self._latencies: List[float] = []  # kept sorted

    @property
    def responses(self) -> int:
        """Total responses observed."""
        return self.on_time + self.late

    def observe(self, execution_time: float) -> None:
        """Record one collected response's execution time."""
        if execution_time < 0.0:
            raise InferenceError(
                f"execution_time must be >= 0: {execution_time!r}"
            )
        if execution_time <= self.deadline:
            self.on_time += 1
        else:
            self.late += 1
        bisect.insort(self._latencies, float(execution_time))

    def _posterior(self) -> Tuple[float, float]:
        """Beta posterior (alpha, beta) over P(response <= deadline)."""
        return (
            self.prior_alpha + self.on_time, self.prior_beta + self.late
        )

    def confidence(self, target_fraction: float) -> float:
        """P(P(response <= deadline) >= target | observations)."""
        from scipy.special import betaincc

        check_in_range(target_fraction, 0.0, 1.0, "target_fraction")
        return float(betaincc(*self._posterior(), target_fraction))

    def confidence_trajectory(
        self, execution_times, target_fraction: float
    ) -> np.ndarray:
        """Deadline confidence after each successive response.

        *execution_times* is the latency vector in observation order;
        the conjugate updates reduce to a cumsum over the on-time
        indicator and the whole trajectory is one batched ``sf``
        evaluation — bit-identical to observing one response at a time
        and calling :meth:`confidence`.  The assessor is not mutated
        (and no latencies are recorded for quantile reporting).
        """
        from scipy.special import betaincc

        check_in_range(target_fraction, 0.0, 1.0, "target_fraction")
        times = np.asarray(execution_times, dtype=float).ravel()
        if times.size and not bool(np.all(times >= 0.0)):
            raise InferenceError(
                "execution times must be >= 0 in a trajectory"
            )
        on_time = np.cumsum(times <= self.deadline, dtype=np.int64)
        totals = np.arange(1, times.size + 1, dtype=np.int64)
        return np.asarray(
            betaincc(
                self.prior_alpha + self.on_time + on_time,
                self.prior_beta + self.late + (totals - on_time),
                target_fraction,
            ),
            dtype=float,
        )

    def posterior_mean(self) -> float:
        """Posterior E[P(response <= deadline)]."""
        alpha, beta = self._posterior()
        return alpha / (alpha + beta)

    def empirical_quantile(self, q: float) -> float:
        """Empirical latency quantile (e.g. ``0.95`` for p95)."""
        check_in_range(q, 0.0, 1.0, "q")
        if not self._latencies:
            raise InferenceError("no latencies observed yet")
        index = min(
            int(q * len(self._latencies)), len(self._latencies) - 1
        )
        return self._latencies[index]

    def __repr__(self) -> str:
        return (
            f"ResponsivenessAssessor(deadline={self.deadline!r}, "
            f"on_time={self.on_time}, late={self.late})"
        )
