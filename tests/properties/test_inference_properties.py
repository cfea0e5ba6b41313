"""Property-based tests on the Bayesian inference invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bayes.beta import TruncatedBeta
from repro.bayes.blackbox import BlackBoxAssessor
from repro.bayes.counts import JointCounts
from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.bayes.whitebox import WhiteBoxAssessor

# Small shared grid so each hypothesis example stays cheap.
GRID = GridSpec(32, 32, 8)

shapes = st.floats(min_value=0.5, max_value=30.0, allow_nan=False)
uppers = st.floats(min_value=1e-4, max_value=0.05, allow_nan=False)


@st.composite
def truncated_betas(draw):
    return TruncatedBeta(draw(shapes), draw(shapes), upper=draw(uppers))


@st.composite
def joint_counts(draw):
    r1 = draw(st.integers(0, 20))
    r2 = draw(st.integers(0, 50))
    r3 = draw(st.integers(0, 50))
    r4 = draw(st.integers(100, 50_000))
    return JointCounts(r1, r2, r3, r4)


class TestTruncatedBetaProperties:
    @given(truncated_betas())
    @settings(max_examples=40, deadline=None)
    def test_cdf_monotone_and_bounded(self, dist):
        xs = np.linspace(dist.lower, dist.upper, 50)
        cdf = dist.cdf(xs)
        assert (np.diff(cdf) >= -1e-12).all()
        assert cdf[0] == pytest.approx(0.0, abs=1e-9)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

    @given(truncated_betas(), st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_ppf_in_support(self, dist, q):
        value = float(dist.ppf(q))
        assert dist.lower <= value <= dist.upper

    @given(truncated_betas(), st.integers(8, 256))
    @settings(max_examples=40, deadline=None)
    # betainc steps down by an ulp near 1 here: cell 214's raw cdf
    # difference is -1.1e-16.
    @example(TruncatedBeta(4.0, 23.5, upper=0.03125), 254)
    def test_grid_weights_normalised(self, dist, points):
        weights = dist.grid_weights(points)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights >= 0).all()

    @given(truncated_betas())
    @settings(max_examples=40, deadline=None)
    def test_mean_within_support(self, dist):
        assert dist.lower <= dist.mean <= dist.upper


class TestBlackBoxProperties:
    @given(
        st.integers(0, 5_000),
        st.integers(0, 10),
        st.floats(1e-4, 5e-3),
    )
    @settings(max_examples=30, deadline=None)
    def test_confidence_is_probability(self, demands, failures, target):
        assessor = BlackBoxAssessor(
            TruncatedBeta(1, 10, upper=0.01), grid_points=256
        )
        failures = min(failures, demands)
        assessor.observe(demands, failures)
        confidence = assessor.confidence(target)
        assert 0.0 <= confidence <= 1.0

    @given(st.integers(100, 20_000))
    @settings(max_examples=25, deadline=None)
    def test_more_clean_evidence_never_hurts(self, demands):
        prior = TruncatedBeta(2, 3, upper=0.01)
        short = BlackBoxAssessor(prior, grid_points=256)
        long = BlackBoxAssessor(prior, grid_points=256)
        short.observe(demands, 0)
        long.observe(demands * 2, 0)
        assert long.confidence(1e-3) >= short.confidence(1e-3) - 1e-9

    @given(st.integers(10, 2_000), st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_percentile_confidence_duality(self, demands, failures):
        assessor = BlackBoxAssessor(
            TruncatedBeta(1, 5, upper=0.02), grid_points=512
        )
        assessor.observe(demands, min(failures, demands))
        bound = assessor.percentile(0.9)
        assert assessor.confidence(bound) >= 0.9 - 1e-9


class TestWhiteBoxProperties:
    @given(joint_counts())
    @settings(max_examples=20, deadline=None)
    def test_marginals_normalised_and_confidences_valid(self, counts):
        prior = WhiteBoxPrior(
            TruncatedBeta(20, 20, upper=0.002),
            TruncatedBeta(2, 3, upper=0.002),
        )
        assessor = WhiteBoxAssessor(prior, GRID)
        assessor.observe(counts)
        for values, mass in (
            assessor.marginal_a(),
            assessor.marginal_b(),
            assessor.marginal_ab(),
        ):
            assert mass.sum() == pytest.approx(1.0)
            assert (mass >= 0).all()
        assert 0.0 <= assessor.confidence_b(1e-3) <= 1.0

    @given(joint_counts())
    @settings(max_examples=20, deadline=None)
    def test_pab_stochastically_below_marginals(self, counts):
        # pAB <= min(pA, pB) pointwise, so its mean obeys the same bound.
        prior = WhiteBoxPrior(
            TruncatedBeta(20, 20, upper=0.002),
            TruncatedBeta(2, 3, upper=0.002),
        )
        assessor = WhiteBoxAssessor(prior, GRID)
        assessor.observe(counts)
        assert assessor.posterior_mean_ab() <= min(
            assessor.posterior_mean_a(), assessor.posterior_mean_b()
        ) + 1e-12

    @given(joint_counts(), st.floats(1e-4, 2e-3))
    @settings(max_examples=20, deadline=None)
    def test_confidence_monotone_in_target(self, counts, target):
        prior = WhiteBoxPrior(
            TruncatedBeta(20, 20, upper=0.002),
            TruncatedBeta(2, 3, upper=0.002),
        )
        assessor = WhiteBoxAssessor(prior, GRID)
        assessor.observe(counts)
        assert assessor.confidence_b(target) <= assessor.confidence_b(
            target * 1.5
        ) + 1e-12
