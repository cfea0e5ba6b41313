"""Outcome-correlation models between two releases (paper eq. 9, Table 4).

The paper simulates a degree of correlation between the *types* of
responses returned by the two releases through conditional probabilities

    P(slower response is X | faster response is Y)

with X, Y in {CR, ER, NER}.  Table 4 gives four parameterisations (0.9,
0.8, 0.7 and 0.4 on the diagonal); Table 3 gives the marginal outcome
distributions.  An independence variant (Table 6) samples both releases
from their own marginals.

Three model classes are provided:

* :class:`OutcomeDistribution` — a marginal over CR/ER/NER;
* :class:`ConditionalOutcomeModel` — marginal for release 1, conditional
  matrix for release 2 (Tables 3+4 combined);
* :class:`IndependentOutcomeModel` — independent marginals (Table 6).
"""

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import check_distribution
from repro.simulation.outcomes import OUTCOME_ORDER, Outcome


class OutcomeDistribution:
    """A probability distribution over CR / ER / NER outcomes."""

    def __init__(self, p_correct: float, p_evident: float, p_non_evident: float):
        probs = check_distribution(
            (p_correct, p_evident, p_non_evident), "outcome probabilities"
        )
        self._probs: Dict[Outcome, float] = dict(zip(OUTCOME_ORDER, probs))

    @classmethod
    def from_mapping(cls, mapping: Mapping[Outcome, float]) -> "OutcomeDistribution":
        """Build from an {Outcome: probability} mapping."""
        missing = [o for o in OUTCOME_ORDER if o not in mapping]
        if missing:
            raise ValidationError(f"missing outcomes in mapping: {missing}")
        return cls(*(mapping[o] for o in OUTCOME_ORDER))

    def probability(self, outcome: Outcome) -> float:
        """P(outcome) under this distribution."""
        return self._probs[outcome]

    @property
    def p_correct(self) -> float:
        return self._probs[Outcome.CORRECT]

    @property
    def p_evident(self) -> float:
        return self._probs[Outcome.EVIDENT_FAILURE]

    @property
    def p_non_evident(self) -> float:
        return self._probs[Outcome.NON_EVIDENT_FAILURE]

    @property
    def p_failure(self) -> float:
        """Total probability of failure (evident + non-evident)."""
        return self.p_evident + self.p_non_evident

    def as_vector(self) -> np.ndarray:
        """Probabilities in :data:`OUTCOME_ORDER` order."""
        return np.array([self._probs[o] for o in OUTCOME_ORDER])

    def sample(self, rng: np.random.Generator) -> Outcome:
        """Draw one outcome."""
        index = rng.choice(len(OUTCOME_ORDER), p=self.as_vector())
        return OUTCOME_ORDER[int(index)]

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw *size* outcome indices (into :data:`OUTCOME_ORDER`).

        Bit-identical to *size* successive :meth:`sample` calls on a
        generator in the same state (numpy's block ``choice`` consumes one
        uniform per draw, exactly like the scalar call) — the property the
        vectorised experiment runtime relies on.
        """
        return rng.choice(len(OUTCOME_ORDER), size=size, p=self.as_vector())

    def sample_many_scalar(
        self, rng: np.random.Generator, size: int
    ) -> np.ndarray:
        """Scalar reference for :meth:`sample_many` (one draw at a time)."""
        vector = self.as_vector()
        return np.array(
            [
                int(rng.choice(len(OUTCOME_ORDER), p=vector))
                for _ in range(size)
            ]
        )

    def __repr__(self) -> str:
        return (
            f"OutcomeDistribution(CR={self.p_correct!r}, "
            f"ER={self.p_evident!r}, NER={self.p_non_evident!r})"
        )


class ConditionalOutcomeMatrix:
    """Row-stochastic matrix ``P(second outcome | first outcome)``.

    Rows and columns follow :data:`OUTCOME_ORDER`.  The paper's Table 4
    uses symmetric matrices with a dominant diagonal (the correlation
    level) and equal off-diagonal mass.
    """

    def __init__(self, rows: Mapping[Outcome, Sequence[float]]):
        self._rows: Dict[Outcome, OutcomeDistribution] = {}
        for outcome in OUTCOME_ORDER:
            if outcome not in rows:
                raise ValidationError(f"missing conditional row for {outcome}")
            self._rows[outcome] = OutcomeDistribution(*rows[outcome])

    @classmethod
    def symmetric(cls, diagonal: float) -> "ConditionalOutcomeMatrix":
        """Build the paper's symmetric matrix with *diagonal* correlation.

        Off-diagonal entries share the remaining mass equally, exactly as
        in Table 4 (e.g. diagonal 0.9 gives off-diagonals 0.05/0.05).
        """
        if not 0.0 <= diagonal <= 1.0:
            raise ValidationError(f"diagonal must be in [0,1]: {diagonal!r}")
        off = (1.0 - diagonal) / 2.0
        rows = {}
        for i, outcome in enumerate(OUTCOME_ORDER):
            row = [off, off, off]
            row[i] = diagonal
            rows[outcome] = row
        return cls(rows)

    def row(self, given: Outcome) -> OutcomeDistribution:
        """Conditional distribution of the second outcome given *given*."""
        return self._rows[given]

    def as_matrix(self) -> np.ndarray:
        """3x3 numpy matrix in :data:`OUTCOME_ORDER` order."""
        return np.vstack([self._rows[o].as_vector() for o in OUTCOME_ORDER])

    def implied_marginal(
        self, first_marginal: OutcomeDistribution
    ) -> OutcomeDistribution:
        """Marginal of the second release implied by the conditionals.

        The paper specifies Table 3 marginals *and* Table 4 conditionals;
        the conditionals only approximately induce the stated marginals.
        This helper quantifies that gap (see tests and EXPERIMENTS.md).
        """
        marginal = first_marginal.as_vector() @ self.as_matrix()
        return OutcomeDistribution(*marginal)

    def __repr__(self) -> str:
        return f"ConditionalOutcomeMatrix({self.as_matrix().tolist()!r})"


def _conditional_draws(
    cdf: np.ndarray, given: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Vectorised inverse-CDF draws from the conditional rows ``cdf[given]``.

    The scalar reference counts ``u > row`` over the whole CDF row and
    caps the count at the last outcome.  The CDF rows are nondecreasing,
    so counting one outcome column at a time over all but the last
    column gives the same index — without an ``(n, outcomes)``
    comparison matrix or a reduction along its short axis.
    """
    drawn = np.zeros(u.shape, dtype=np.intp)
    for col in range(cdf.shape[1] - 1):
        drawn += u > cdf[given, col]
    return drawn


class JointOutcomeModel:
    """Abstract base: samples the joint (release 1, release 2) outcome."""

    def sample_pair(self, rng: np.random.Generator) -> Tuple[Outcome, Outcome]:
        """Draw one (first, second) outcome pair."""
        raise NotImplementedError

    def sample_pairs(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised draw of *size* pairs as outcome-index arrays.

        Contract: bit-identical to :meth:`sample_pairs_scalar` on a
        generator in the same state (both consume the stream leg by leg:
        all first-release draws, then all second-release draws).
        """
        raise NotImplementedError

    def sample_pairs_scalar(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scalar reference for :meth:`sample_pairs` (one draw at a time)."""
        raise NotImplementedError

    def marginal_first(self) -> OutcomeDistribution:
        """Marginal outcome distribution of release 1."""
        raise NotImplementedError

    def marginal_second(self) -> OutcomeDistribution:
        """Marginal outcome distribution of release 2."""
        raise NotImplementedError

    def sample_tuple(
        self, rng: np.random.Generator, count: int
    ) -> Tuple[Outcome, ...]:
        """Draw one outcome per release for *count* deployed releases.

        Pairwise models only support ``count == 2``;
        :class:`ChainedOutcomeModel` supports any count.
        """
        if count != 2:
            raise ValidationError(
                f"{type(self).__name__} models exactly 2 releases, "
                f"got {count}"
            )
        return self.sample_pair(rng)


class ConditionalOutcomeModel(JointOutcomeModel):
    """Correlated outcomes: release 1 marginal + conditional matrix.

    This reproduces the paper's Table 5 regime: the first release's outcome
    is drawn from its Table 3 marginal; the second release's outcome is
    drawn from the Table 4 row selected by the first outcome.
    """

    def __init__(
        self,
        first_marginal: OutcomeDistribution,
        conditional: ConditionalOutcomeMatrix,
    ):
        self._first = first_marginal
        self._conditional = conditional

    @property
    def conditional(self) -> ConditionalOutcomeMatrix:
        return self._conditional

    def sample_pair(self, rng: np.random.Generator) -> Tuple[Outcome, Outcome]:
        first = self._first.sample(rng)
        second = self._conditional.row(first).sample(rng)
        return first, second

    def sample_pairs(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        first_idx = self._first.sample_many(rng, size)
        cdf = np.cumsum(self._conditional.as_matrix(), axis=1)
        return first_idx, _conditional_draws(cdf, first_idx, rng.random(size))

    def sample_pairs_scalar(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        first_idx = self._first.sample_many_scalar(rng, size)
        cdf = np.cumsum(self._conditional.as_matrix(), axis=1)
        second = []
        for i in range(size):
            u = rng.random()
            row = cdf[first_idx[i]]
            second.append(min(int((u > row).sum()), len(OUTCOME_ORDER) - 1))
        return first_idx, np.array(second)

    def marginal_first(self) -> OutcomeDistribution:
        return self._first

    def marginal_second(self) -> OutcomeDistribution:
        return self._conditional.implied_marginal(self._first)


class ChainedOutcomeModel(JointOutcomeModel):
    """Markov-chained outcomes for N releases (the §4.1 general case).

    The paper's architecture runs "several releases" though its
    evaluation uses two.  This model extends the Table-3/4 construction
    to N releases: release 1's outcome follows the base marginal, and
    each subsequent release's outcome follows the conditional row
    selected by its predecessor — the natural generalisation when each
    new release is derived from the previous one (so its failures
    correlate most strongly with its immediate ancestor's).
    """

    def __init__(
        self,
        first_marginal: OutcomeDistribution,
        conditional: ConditionalOutcomeMatrix,
    ):
        self._first = first_marginal
        self._conditional = conditional

    @property
    def conditional(self) -> ConditionalOutcomeMatrix:
        return self._conditional

    def sample_tuple(
        self, rng: np.random.Generator, count: int
    ) -> Tuple[Outcome, ...]:
        if count < 1:
            raise ValidationError(f"count must be >= 1: {count!r}")
        outcomes = [self._first.sample(rng)]
        for _ in range(count - 1):
            outcomes.append(self._conditional.row(outcomes[-1]).sample(rng))
        return tuple(outcomes)

    def sample_pair(self, rng: np.random.Generator) -> Tuple[Outcome, Outcome]:
        first, second = self.sample_tuple(rng, 2)
        return first, second

    def sample_pairs(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        pairwise = ConditionalOutcomeModel(self._first, self._conditional)
        return pairwise.sample_pairs(rng, size)

    def sample_pairs_scalar(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        pairwise = ConditionalOutcomeModel(self._first, self._conditional)
        return pairwise.sample_pairs_scalar(rng, size)

    def sample_chain(
        self, rng: np.random.Generator, size: int, count: int
    ) -> np.ndarray:
        """Vectorised draw of *size* outcome chains of length *count*.

        Returns a ``(size, count)`` index array into :data:`OUTCOME_ORDER`.
        The stream is consumed leg by leg (release 1's block, then one
        uniform block per subsequent release), bit-identical to
        :meth:`sample_chain_scalar`.
        """
        if count < 1:
            raise ValidationError(f"count must be >= 1: {count!r}")
        chain = np.empty((size, count), dtype=np.intp)
        chain[:, 0] = self._first.sample_many(rng, size)
        cdf = np.cumsum(self._conditional.as_matrix(), axis=1)
        for level in range(1, count):
            chain[:, level] = _conditional_draws(
                cdf, chain[:, level - 1], rng.random(size)
            )
        return chain

    def sample_chain_scalar(
        self, rng: np.random.Generator, size: int, count: int
    ) -> np.ndarray:
        """Scalar reference for :meth:`sample_chain` (same leg order)."""
        if count < 1:
            raise ValidationError(f"count must be >= 1: {count!r}")
        chain = np.empty((size, count), dtype=np.intp)
        chain[:, 0] = self._first.sample_many_scalar(rng, size)
        cdf = np.cumsum(self._conditional.as_matrix(), axis=1)
        for level in range(1, count):
            for i in range(size):
                u = rng.random()
                row = cdf[chain[i, level - 1]]
                chain[i, level] = min(
                    int((u > row).sum()), len(OUTCOME_ORDER) - 1
                )
        return chain

    def marginal_first(self) -> OutcomeDistribution:
        return self._first

    def marginal_second(self) -> OutcomeDistribution:
        return self._conditional.implied_marginal(self._first)

    def marginal_nth(self, index: int) -> OutcomeDistribution:
        """Marginal of release *index* (0-based) along the chain."""
        if index < 0:
            raise ValidationError(f"index must be >= 0: {index!r}")
        marginal = self._first
        for _ in range(index):
            marginal = self._conditional.implied_marginal(marginal)
        return marginal


class IndependentOutcomeModel(JointOutcomeModel):
    """Independent outcomes (the paper's Table 6 regime)."""

    def __init__(
        self,
        first_marginal: OutcomeDistribution,
        second_marginal: OutcomeDistribution,
    ):
        self._first = first_marginal
        self._second = second_marginal

    def sample_pair(self, rng: np.random.Generator) -> Tuple[Outcome, Outcome]:
        return self._first.sample(rng), self._second.sample(rng)

    def sample_pairs(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return (
            self._first.sample_many(rng, size),
            self._second.sample_many(rng, size),
        )

    def sample_pairs_scalar(
        self, rng: np.random.Generator, size: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return (
            self._first.sample_many_scalar(rng, size),
            self._second.sample_many_scalar(rng, size),
        )

    def marginal_first(self) -> OutcomeDistribution:
        return self._first

    def marginal_second(self) -> OutcomeDistribution:
        return self._second
