"""Unit tests for the truncated Beta distribution."""

import pytest

from repro.bayes.beta import TruncatedBeta
from repro.common.errors import ValidationError


class TestConstruction:
    def test_scenario1_prior_mean(self):
        # The paper's Scenario 1 old-release prior: mean exactly 1e-3.
        prior = TruncatedBeta(20, 20, upper=0.002)
        assert prior.mean == pytest.approx(1e-3)

    def test_scenario1_new_release_mean(self):
        prior = TruncatedBeta(2, 3, upper=0.002)
        assert prior.mean == pytest.approx(0.8e-3)

    def test_rejects_bad_range(self):
        with pytest.raises(ValidationError):
            TruncatedBeta(1, 1, upper=0.0)
        with pytest.raises(ValidationError):
            TruncatedBeta(1, 1, upper=0.5, lower=0.6)

    def test_rejects_non_positive_shape(self):
        with pytest.raises(ValidationError):
            TruncatedBeta(0, 1, upper=1.0)


class TestCdfPpf:
    def test_cdf_bounds(self):
        prior = TruncatedBeta(2, 3, upper=0.002)
        assert prior.cdf(0.0) == 0.0
        assert prior.cdf(0.002) == 1.0
        assert prior.cdf(1.0) == 1.0

    def test_ppf_inverts_cdf(self):
        prior = TruncatedBeta(20, 20, upper=0.002)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert prior.cdf(prior.ppf(q)) == pytest.approx(q, abs=1e-9)

    def test_uniform_special_case(self):
        uniform = TruncatedBeta(1, 1, upper=2.0)
        assert uniform.ppf(0.25) == pytest.approx(0.5)
        assert uniform.cdf(1.0) == pytest.approx(0.5)

    def test_variance(self):
        uniform = TruncatedBeta(1, 1, upper=1.0)
        assert uniform.variance == pytest.approx(1.0 / 12.0)


class TestGrid:
    def test_grid_midpoints_inside_support(self):
        prior = TruncatedBeta(2, 3, upper=0.002)
        grid = prior.grid(100)
        assert len(grid) == 100
        assert grid.min() > 0.0 and grid.max() < 0.002

    def test_grid_weights_sum_to_one(self):
        prior = TruncatedBeta(20, 20, upper=0.002)
        assert prior.grid_weights(64).sum() == pytest.approx(1.0)

    def test_grid_weights_capture_peaked_mass(self):
        # Beta(20,20) concentrates near the middle; cdf-difference
        # quadrature must put most mass near the centre cells.
        prior = TruncatedBeta(20, 20, upper=0.002)
        weights = prior.grid_weights(64)
        centre_mass = weights[16:48].sum()
        assert centre_mass > 0.95

    def test_grid_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            TruncatedBeta(1, 1, upper=1.0).grid(0)

    @pytest.mark.parametrize("points", [0, -3])
    def test_grid_weights_rejects_non_positive(self, points):
        prior = TruncatedBeta(20, 20, upper=0.002)
        with pytest.raises(ValidationError, match="points must be > 0"):
            prior.grid_weights(points)


class TestSampling:
    def test_samples_within_support(self, rng):
        prior = TruncatedBeta(2, 3, upper=0.002)
        samples = prior.sample(rng, size=10_000)
        assert samples.min() >= 0.0 and samples.max() <= 0.002

    def test_sample_mean_matches(self, rng):
        prior = TruncatedBeta(2, 3, upper=0.002)
        samples = prior.sample(rng, size=100_000)
        assert samples.mean() == pytest.approx(prior.mean, rel=0.02)
