"""IEEE-bit oracle: the Beta layer against ``scipy.stats.beta``.

``repro.bayes`` evaluates every Beta law with public ``scipy.special``
ufuncs (``betainc``, ``betaincc``, ``betaincinv``) so that importing it
never loads ``scipy.stats``.  These tests keep ``scipy.stats.beta``, the
implementation the layer replaced, as the oracle: every result must be
the same IEEE double, on seeded random arguments and at the boundaries
the frozen distribution used to handle — x at or outside the ends of
the support, NaN, quantile levels 0 and 1, shape parameters below 1.
"""

import numpy as np
import pytest

from repro.bayes.attributes import AvailabilityAssessor, ResponsivenessAssessor
from repro.bayes.beta import TruncatedBeta
from repro.bayes.priors import GridSpec
from repro.experiments.scenarios import scenario_1, scenario_2

#: Shapes that reach every boundary regime of the Beta law: density
#: infinite at 0 and at 1 (a, b < 1), at one end only, flat, peaked.
BOUNDARY_SHAPES = [(0.3, 0.5), (0.5, 2.0), (2.0, 0.4), (1.0, 1.0), (20.0, 20.0)]

#: Unit-interval points at and beyond the ends of the support.
BOUNDARY_UNITS = [0.0, 1.0, -0.0, -0.1, 1.1, -np.inf, np.inf, np.nan]


@pytest.fixture(scope="module")
def oracle():
    from scipy import stats

    return stats.beta


def assert_same_bits(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def random_shapes(rng, count):
    """Log-uniform (a, b) pairs on [e^-3, e^6]: both sides of 1."""
    return np.exp(rng.uniform(-3.0, 6.0, size=(count, 2)))


def random_priors(rng, count):
    """TruncatedBeta priors with random shapes and supports."""
    priors = []
    for a, b in random_shapes(rng, count):
        lower = float(rng.uniform(0.0, 0.01))
        width = float(rng.uniform(1e-4, 1.0))
        priors.append(TruncatedBeta(a, b, upper=lower + width, lower=lower))
    return priors


def frame(prior):
    """The oracle's loc/scale keywords for *prior*'s support."""
    return {"loc": prior.lower, "scale": prior.upper - prior.lower}


def paper_priors():
    return [
        marginal
        for scenario in (scenario_1(), scenario_2())
        for marginal in (scenario.prior.marginal_a, scenario.prior.marginal_b)
    ]


class TestTruncatedBeta:
    def test_cdf_random(self, oracle):
        rng = np.random.default_rng(2004)
        for prior in random_priors(rng, 200):
            unit = rng.uniform(-0.2, 1.2, 100)
            x = prior.lower + (prior.upper - prior.lower) * unit
            assert_same_bits(
                prior.cdf(x), oracle.cdf(x, prior.alpha, prior.beta, **frame(prior))
            )

    @pytest.mark.parametrize("a, b", BOUNDARY_SHAPES)
    def test_cdf_boundaries(self, oracle, a, b):
        prior = TruncatedBeta(a, b, upper=0.002)
        x = 0.002 * np.array(BOUNDARY_UNITS)
        assert_same_bits(prior.cdf(x), oracle.cdf(x, a, b, **frame(prior)))
        for point in x:
            assert_same_bits(
                prior.cdf(point), oracle.cdf(point, a, b, **frame(prior))
            )

    def test_ppf_random(self, oracle):
        rng = np.random.default_rng(2005)
        for prior in random_priors(rng, 200):
            q = rng.uniform(0.0, 1.0, 100)
            assert_same_bits(
                prior.ppf(q), oracle.ppf(q, prior.alpha, prior.beta, **frame(prior))
            )

    @pytest.mark.parametrize("a, b", BOUNDARY_SHAPES)
    def test_ppf_boundaries(self, oracle, a, b):
        prior = TruncatedBeta(a, b, upper=0.01, lower=0.001)
        q = np.array(BOUNDARY_UNITS + [0.5, 0.99, 1e-300])
        assert_same_bits(prior.ppf(q), oracle.ppf(q, a, b, **frame(prior)))
        for level in q:
            assert_same_bits(
                prior.ppf(level), oracle.ppf(level, a, b, **frame(prior))
            )

    def test_grid_weights(self, oracle):
        rng = np.random.default_rng(2006)
        priors = paper_priors() + random_priors(rng, 40)
        for prior in priors:
            for points in (1, 7, GridSpec().n_pa):
                edges = np.linspace(prior.lower, prior.upper, points + 1)
                mass = np.diff(
                    oracle.cdf(edges, prior.alpha, prior.beta, **frame(prior))
                )
                assert_same_bits(prior.grid_weights(points), mass / mass.sum())


def availability_params(assessor):
    """The posterior Beta shapes the oracle evaluates."""
    return (
        assessor.prior_alpha + assessor.responded,
        assessor.prior_beta + assessor.missed,
    )


def responsiveness_params(assessor):
    """The posterior Beta shapes the oracle evaluates."""
    return (
        assessor.prior_alpha + assessor.on_time,
        assessor.prior_beta + assessor.late,
    )


class TestAvailabilityAssessor:
    def test_random(self, oracle):
        rng = np.random.default_rng(2007)
        for prior_a, prior_b in random_shapes(rng, 300):
            assessor = AvailabilityAssessor(prior_a, prior_b)
            responded, missed = rng.integers(0, 5_000, 2)
            assessor.observe_many(responded, missed)
            a, b = availability_params(assessor)
            target, level = rng.uniform(0.0, 1.0, 2)
            assert_same_bits(assessor.confidence(target), oracle.sf(target, a, b))
            assert_same_bits(
                assessor.lower_bound(level), oracle.ppf(1.0 - level, a, b)
            )
            assert_same_bits(assessor.posterior_mean(), oracle.mean(a, b))

    @pytest.mark.parametrize("prior_a, prior_b", BOUNDARY_SHAPES)
    def test_boundaries(self, oracle, prior_a, prior_b):
        assessor = AvailabilityAssessor(prior_a, prior_b)
        a, b = availability_params(assessor)
        for value in (0.0, 1.0, 0.5, 1e-10):
            assert_same_bits(assessor.confidence(value), oracle.sf(value, a, b))
            assert_same_bits(
                assessor.lower_bound(value), oracle.ppf(1.0 - value, a, b)
            )
        assert_same_bits(assessor.posterior_mean(), oracle.mean(a, b))

    @pytest.mark.parametrize("prior_a, prior_b", BOUNDARY_SHAPES)
    @pytest.mark.parametrize("value", [0.0, 1e-10, 0.37, 0.99, 1.0])
    def test_trajectories(self, oracle, prior_a, prior_b, value):
        rng = np.random.default_rng(2008)
        assessor = AvailabilityAssessor(prior_a, prior_b)
        assessor.observe_many(*rng.integers(0, 50, 2))
        outcomes = rng.random(400) < 0.9
        a, b = availability_params(assessor)
        successes = np.cumsum(outcomes)
        alphas = a + successes
        betas = b + (np.arange(1, outcomes.size + 1) - successes)
        assert_same_bits(
            assessor.confidence_trajectory(outcomes, value),
            oracle.sf(value, alphas, betas),
        )
        assert_same_bits(
            assessor.lower_bound_trajectory(outcomes, value),
            oracle.ppf(1.0 - value, alphas, betas),
        )

    def test_empty_trajectories(self, oracle):
        assessor = AvailabilityAssessor()
        empty = np.array([], dtype=float)
        assert_same_bits(
            assessor.confidence_trajectory([], 0.5), oracle.sf(0.5, empty, empty)
        )
        assert_same_bits(
            assessor.lower_bound_trajectory([], 0.5), oracle.ppf(0.5, empty, empty)
        )


class TestResponsivenessAssessor:
    def test_random(self, oracle):
        rng = np.random.default_rng(2009)
        for prior_a, prior_b in random_shapes(rng, 100):
            assessor = ResponsivenessAssessor(1.0, prior_a, prior_b)
            for latency in rng.exponential(1.0, rng.integers(0, 60)):
                assessor.observe(float(latency))
            a, b = responsiveness_params(assessor)
            target = rng.uniform(0.0, 1.0)
            assert_same_bits(assessor.confidence(target), oracle.sf(target, a, b))
            assert_same_bits(assessor.posterior_mean(), oracle.mean(a, b))

    @pytest.mark.parametrize("prior_a, prior_b", BOUNDARY_SHAPES)
    @pytest.mark.parametrize("target", [0.0, 0.5, 1.0])
    def test_boundaries_and_trajectory(self, oracle, prior_a, prior_b, target):
        rng = np.random.default_rng(2010)
        assessor = ResponsivenessAssessor(0.8, prior_a, prior_b)
        a, b = responsiveness_params(assessor)
        assert_same_bits(assessor.confidence(target), oracle.sf(target, a, b))
        assert_same_bits(assessor.posterior_mean(), oracle.mean(a, b))
        times = rng.exponential(0.7, 300)
        on_time = np.cumsum(times <= 0.8)
        assert_same_bits(
            assessor.confidence_trajectory(times, target),
            oracle.sf(
                target, a + on_time, b + (np.arange(1, times.size + 1) - on_time)
            ),
        )


@pytest.mark.parametrize("q", [1e-10, 1e-12, 3.1622776601683794e-16])
def test_far_lower_tail_inverts_where_the_oracle_gives_up(q):
    """Beta(0.5, 2) at q <= 1e-9: no oracle, so check by inversion.

    There ``scipy.stats.beta.ppf``'s private root finder gives up (in
    SciPy 1.17 it warns and returns a quantile whose cdf is off by ~99%,
    or 0.5 at q ~ 3e-16), so it cannot serve as the reference.  The cdf
    of the quantile ``betaincinv`` returns must be q to within rounding.
    """
    from scipy.special import betainc

    prior = TruncatedBeta(0.5, 2.0, upper=1.0)
    assert betainc(0.5, 2.0, prior.ppf(q)) == pytest.approx(q, rel=1e-15, abs=0.0)
    level = 1.0 - q
    bound = AvailabilityAssessor(0.5, 2.0).lower_bound(level)
    assert betainc(0.5, 2.0, bound) == pytest.approx(
        1.0 - level, rel=1e-15, abs=0.0
    )
