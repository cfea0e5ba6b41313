"""Unit tests for the white-box trivariate assessor (eq. 2-6)."""

import numpy as np
import pytest

from repro.bayes.beta import TruncatedBeta
from repro.bayes.counts import JointCounts
from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.common.errors import InferenceError


@pytest.fixture
def assessor(scenario1_prior, small_grid):
    return WhiteBoxAssessor(scenario1_prior, small_grid)


class TestPriorState:
    def test_prior_marginal_a_matches_beta(self, assessor, scenario1_prior):
        # With no observations the pA marginal is the prior itself.
        values, mass = assessor.marginal_a()
        cdf_at_mean = mass[values <= scenario1_prior.marginal_a.mean].sum()
        expected = float(
            scenario1_prior.marginal_a.cdf(scenario1_prior.marginal_a.mean)
        )
        assert cdf_at_mean == pytest.approx(expected, abs=0.03)

    def test_prior_percentiles_match_betas(self, assessor, scenario1_prior):
        assert assessor.percentile_a(0.99) == pytest.approx(
            float(scenario1_prior.marginal_a.ppf(0.99)), rel=0.03
        )
        assert assessor.percentile_b(0.99) == pytest.approx(
            float(scenario1_prior.marginal_b.ppf(0.99)), rel=0.03
        )

    def test_prior_pab_mean_half_of_min(self, assessor, scenario1_prior):
        # The indifference prior E[pAB | pA, pB] = min(pA, pB) / 2.
        mean_ab = assessor.posterior_mean_ab()
        assert 0.0 < mean_ab
        # pAB <= min marginal means; its mean is near half of E[min].
        cap = min(
            scenario1_prior.marginal_a.mean, scenario1_prior.marginal_b.mean
        )
        assert mean_ab < cap

    def test_marginal_masses_sum_to_one(self, assessor):
        for values, mass in (
            assessor.marginal_a(),
            assessor.marginal_b(),
            assessor.marginal_ab(),
        ):
            assert mass.sum() == pytest.approx(1.0)


class TestUpdating:
    def test_observations_accumulate(self, assessor):
        assessor.observe(JointCounts(1, 2, 3, 94))
        assessor.observe(JointCounts(0, 1, 0, 99))
        assert assessor.counts.as_tuple() == (1, 3, 3, 193)

    def test_replace_counts(self, assessor):
        assessor.observe(JointCounts(1, 1, 1, 97))
        assessor.replace_counts(JointCounts(0, 0, 0, 1000))
        assert assessor.counts.total == 1000

    def test_reset(self, assessor):
        prior_p99 = assessor.percentile_b(0.99)
        assessor.observe(JointCounts(0, 0, 0, 50_000))
        assessor.reset()
        assert assessor.percentile_b(0.99) == pytest.approx(prior_p99)

    def test_failure_free_run_shrinks_percentiles(self, assessor):
        before = assessor.percentile_b(0.99)
        assessor.observe(JointCounts(0, 0, 0, 50_000))
        after = assessor.percentile_b(0.99)
        assert after < before

    def test_b_failures_raise_b_percentile(self, assessor):
        assessor.observe(JointCounts(0, 0, 0, 10_000))
        clean = assessor.percentile_b(0.99)
        assessor.reset()
        assessor.observe(JointCounts(0, 0, 30, 9_970))
        dirty = assessor.percentile_b(0.99)
        assert dirty > clean

    def test_a_only_failures_inflate_a_not_b(self, assessor):
        # r2 (A-only failures) inflates the pA marginal.  Through the
        # pAB coupling it is also (correctly) evidence that B survives
        # A's failure points, so pB's bound must not *grow*.
        assessor.observe(JointCounts(0, 0, 0, 10_000))
        clean_b = assessor.percentile_b(0.99)
        clean_a = assessor.percentile_a(0.99)
        assessor.reset()
        assessor.observe(JointCounts(0, 40, 0, 9_960))
        assert assessor.percentile_a(0.99) > clean_a
        assert assessor.percentile_b(0.99) <= clean_b


class TestPosteriorConsistency:
    def test_posterior_concentrates_near_truth(self, scenario1_prior):
        # Feed counts matching PA=1e-3, PB=0.8e-3, PAB=0.3e-3 over 100k.
        assessor = WhiteBoxAssessor(scenario1_prior, GridSpec(96, 96, 32))
        n = 100_000
        r1 = 30          # pAB = 3e-4
        r2 = 100 - 30    # pA = 1e-3
        r3 = 80 - 30     # pB = 0.8e-3
        assessor.observe(JointCounts(r1, r2, r3, n - r1 - r2 - r3))
        assert assessor.posterior_mean_a() == pytest.approx(1e-3, rel=0.2)
        assert assessor.posterior_mean_b() == pytest.approx(0.8e-3, rel=0.2)
        assert assessor.posterior_mean_ab() == pytest.approx(3e-4, rel=0.3)

    def test_confidence_matches_marginal_cdf(self, assessor):
        assessor.observe(JointCounts(1, 3, 2, 9_994))
        values, mass = assessor.marginal_b()
        target = 1.2e-3
        assert assessor.confidence_b(target) == pytest.approx(
            mass[values <= target].sum()
        )

    def test_percentile_inverts_confidence(self, assessor):
        assessor.observe(JointCounts(0, 2, 1, 4_997))
        t = assessor.percentile_b(0.9)
        assert assessor.confidence_b(t) >= 0.9

    def test_pab_bounded_by_marginals(self, assessor):
        assessor.observe(JointCounts(2, 5, 3, 9_990))
        # P(pAB <= min marginal 99% bounds) must be essentially certain.
        bound = min(assessor.percentile_a(0.999),
                    assessor.percentile_b(0.999))
        assert assessor.confidence_ab(bound) > 0.99

    def test_overwhelming_failure_rate_pins_at_support_cap(
        self, scenario1_prior, small_grid
    ):
        # pA is capped at 0.002 by the prior support; a 50% observed
        # failure rate concentrates the posterior at the cap instead of
        # following the data beyond it.
        assessor = WhiteBoxAssessor(scenario1_prior, small_grid)
        assessor.observe(JointCounts(0, 5_000, 0, 5_000))
        # The mean sits in the topmost grid cells, just below the cap.
        assert assessor.posterior_mean_a() > 0.0018

    def test_percentile_rejects_bad_level(self, assessor):
        with pytest.raises(InferenceError):
            assessor.percentile_a(1.5)


class TestGridSpec:
    def test_cells(self):
        assert GridSpec(10, 20, 4).cells == 800

    def test_rejects_too_coarse(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            GridSpec(2, 10, 10)

    def test_prior_describe_mentions_uniform(self, scenario1_prior):
        assert "Uniform(0, min(pA, pB))" in scenario1_prior.describe()


class TestCheckpointSummary:
    """One posterior evaluation answers all checkpoint queries,
    bit-identical to the per-query methods."""

    def _bits(self, value):
        import struct

        return struct.pack("<d", value).hex()

    def test_matches_individual_queries(self, assessor):
        assessor.observe(JointCounts(1, 4, 2, 9993))
        (pa99,), (pb99, pb90), (c1, c2) = assessor.checkpoint_summary(
            levels_a=(0.99,),
            levels_b=(0.99, 0.90),
            targets_b=(1e-3, 1.5e-3),
        )
        assert self._bits(pa99) == self._bits(assessor.percentile_a(0.99))
        assert self._bits(pb99) == self._bits(assessor.percentile_b(0.99))
        assert self._bits(pb90) == self._bits(assessor.percentile_b(0.90))
        assert self._bits(c1) == self._bits(assessor.confidence_b(1e-3))
        assert self._bits(c2) == self._bits(assessor.confidence_b(1.5e-3))

    def test_empty_queries_allowed(self, assessor):
        assert assessor.checkpoint_summary() == ([], [], [])

    def test_rejects_bad_level(self, assessor):
        with pytest.raises(InferenceError):
            assessor.checkpoint_summary(levels_a=(1.5,))


# -- the whole-grid arithmetic the blocked evaluation must reproduce --------


def _reference_safe_log(values):
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(values)
    return np.where(values > 0.0, logs, -np.inf)


def reference_tables(assessor):
    """``(pAB, log p11, log p10, log p01, log p00)``, each built over the
    whole grid at once."""
    pa3 = assessor._pa[:, None, None]
    pb3 = assessor._pb[None, :, None]
    q3 = assessor._q[None, None, :]
    pab = q3 * np.minimum(pa3, pb3)
    return (
        pab,
        _reference_safe_log(pab),
        _reference_safe_log(pa3 - pab),
        _reference_safe_log(pb3 - pab),
        _reference_safe_log(1.0 - pa3 - pb3 + pab),
    )


def expanded_log_p11(assessor):
    """The whole-grid log p11 that the compact table and splits encode:
    pB's rows below each pA row's split, the pA row's own from it on."""
    grid = assessor.grid
    pb_rows = assessor._log_qm[grid.n_pa:]
    return np.stack([
        np.concatenate((
            pb_rows[:split],
            np.broadcast_to(
                assessor._log_qm[index], (grid.n_pb - split, grid.n_q)
            ),
        ))
        for index, split in enumerate(assessor._split)
    ])


def reference_posterior(assessor, tables):
    """The normalised posterior, one whole-grid numpy op per step."""
    prior, grid = assessor.prior, assessor.grid
    log_wa = _reference_safe_log(prior.marginal_a.grid_weights(grid.n_pa))
    log_wb = _reference_safe_log(prior.marginal_b.grid_weights(grid.n_pb))
    log_wq = -np.log(grid.n_q)
    log_prior = log_wa[:, None, None] + log_wb[None, :, None] + log_wq
    _pab, log_p11, log_p10, log_p01, log_p00 = tables
    r1, r2, r3, r4 = assessor.counts.as_tuple()
    log_post = log_prior + np.zeros_like(log_p11)
    if r1:
        log_post = log_post + r1 * log_p11
    if r2:
        log_post = log_post + r2 * log_p10
    if r3:
        log_post = log_post + r3 * log_p01
    if r4:
        log_post = log_post + r4 * log_p00
    mass = np.exp(log_post - log_post.max())
    mass /= mass.sum()
    return mass


def _same_bits(left, right):
    left, right = np.asarray(left), np.asarray(right)
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and left.tobytes() == right.tobytes()
    )


#: One full-stream count and the same stream with each Table-1 cell
#: emptied in turn, then all four empty (the prior).
COUNT_CASES = [
    (3, 12, 7, 2_978),
    (0, 12, 7, 2_981),
    (3, 0, 7, 2_990),
    (3, 12, 0, 2_985),
    (3, 12, 7, 0),
    (0, 0, 0, 0),
]

#: The paper's grid, the unit-test grid, and one whose last block of pA
#: rows is partial.
GRIDS = [GridSpec(), GridSpec(96, 96, 32), GridSpec(50, 40, 12)]


#: Two priors over one support.
PRIOR = WhiteBoxPrior(
    TruncatedBeta(20, 20, upper=0.002), TruncatedBeta(2, 3, upper=0.002)
)


@pytest.fixture(scope="module", params=GRIDS, ids=repr)
def assessed(request):
    assessor = WhiteBoxAssessor(PRIOR, request.param)
    return assessor, reference_tables(assessor)


class TestBlockedEvaluationMatchesWholeGrid:
    """The block passes give the whole-grid arithmetic's exact bits."""

    def test_last_block_is_partial_on_one_grid(self):
        from repro.bayes import whitebox

        assert GRIDS[-1].n_pa % whitebox.BLOCK_ROWS != 0

    def test_pa_equals_pb_on_a_square_grid(self):
        # The two priors share a support, so on a square grid pA's and
        # pB's values coincide, and the r1 > 0 cases cover cells where
        # pA = pB: the split between the compact log p11 table's spans.
        square = [grid for grid in GRIDS if grid.n_pa == grid.n_pb]
        assert square
        for grid in square:
            assert _same_bits(
                PRIOR.marginal_a.grid(grid.n_pa),
                PRIOR.marginal_b.grid(grid.n_pb),
            )

    def test_tables(self, assessed):
        assessor, tables = assessed
        built = (
            assessor._pab, expanded_log_p11(assessor), assessor._log_p10,
            assessor._log_p01, assessor._log_p00,
        )
        for name, got, expected in zip(
            ("pab", "log_p11", "log_p10", "log_p01", "log_p00"),
            built, tables,
        ):
            assert _same_bits(got, expected), name

    @pytest.mark.parametrize("counts", COUNT_CASES, ids=str)
    def test_posterior_summary_and_marginals(self, assessed, counts):
        assessor, tables = assessed
        assessor.replace_counts(JointCounts(*counts))
        expected = reference_posterior(assessor, tables)
        assert _same_bits(assessor._posterior(), expected)

        mass_a = expected.sum(axis=(1, 2))
        mass_b = expected.sum(axis=(0, 2))
        order = np.argsort(tables[0], axis=None)
        marginals = (
            (assessor.marginal_a(), (assessor._pa, mass_a)),
            (assessor.marginal_b(), (assessor._pb, mass_b)),
            (
                assessor.marginal_ab(),
                (tables[0].ravel()[order], expected.ravel()[order]),
            ),
        )
        for (values, mass), (expected_values, expected_mass) in marginals:
            assert _same_bits(values, expected_values)
            assert _same_bits(mass, expected_mass)

        targets = (1e-3, 1.5e-3)
        summary = assessor.checkpoint_summary(
            levels_a=(0.99,), levels_b=(0.99, 0.90), targets_b=targets
        )
        percentile = WhiteBoxAssessor._percentile
        assert _same_bits(
            np.array([value for part in summary for value in part]),
            np.array(
                [percentile(assessor._pa, mass_a, 0.99)]
                + [percentile(assessor._pb, mass_b, level)
                   for level in (0.99, 0.90)]
                + [float(mass_b[assessor._pb <= t].sum()) for t in targets]
            ),
        )


class TestPosteriorBufferReuse:
    def test_next_evaluation_overwrites_the_returned_grid(self, assessor):
        assessor.replace_counts(JointCounts(1, 4, 2, 9_993))
        first = assessor._posterior()
        assessor.replace_counts(JointCounts(0, 0, 0, 50_000))
        assert assessor._posterior() is first

    def test_marginals_survive_the_next_evaluation(self, assessor):
        assessor.replace_counts(JointCounts(1, 4, 2, 9_993))
        kept = [assessor.marginal_a(), assessor.marginal_b(),
                assessor.marginal_ab()]
        copies = [(values.copy(), mass.copy()) for values, mass in kept]
        assessor.replace_counts(JointCounts(0, 30, 0, 49_970))
        assessor.checkpoint_summary(levels_b=(0.99,))
        for (values, mass), (values_copy, mass_copy) in zip(kept, copies):
            assert _same_bits(values, values_copy)
            assert _same_bits(mass, mass_copy)


def _grid_arrays(assessor):
    """The distinct arrays of the grid's shape the assessor holds, by
    attribute name (a view counts with the array it views)."""
    grid = assessor.grid
    shape = (grid.n_pa, grid.n_pb, grid.n_q)
    held = {}
    for name, value in vars(assessor).items():
        if isinstance(value, np.ndarray) and value.shape == shape:
            base = value if value.base is None else value.base
            held.setdefault(id(base), (name, value))
    return dict(held.values())


class TestGridSizedArrays:
    """Four float64 arrays of the grid's shape; pAB only on demand."""

    HELD = {"_log_p10", "_log_p01", "_log_p00", "_posterior_buffer"}

    def test_four_after_construction_and_evaluation(self, assessor):
        arrays = _grid_arrays(assessor)
        assert set(arrays) == self.HELD
        assert all(array.dtype == np.float64 for array in arrays.values())
        assessor.replace_counts(JointCounts(3, 12, 7, 2_978))
        assessor.checkpoint_summary(
            levels_a=(0.99,), levels_b=(0.99, 0.90), targets_b=(1e-3,)
        )
        assert set(_grid_arrays(assessor)) == self.HELD

    @pytest.mark.parametrize("query", [
        "marginal_ab", "posterior_mean_ab",
    ])
    def test_pab_is_built_by_the_pab_marginal_only(self, assessor, query):
        assessor.replace_counts(JointCounts(1, 4, 2, 9_993))
        assessor.checkpoint_summary(levels_a=(0.99,), levels_b=(0.99,))
        assessor.marginal_a()
        assessor.marginal_b()
        assert "_pab" not in vars(assessor)
        getattr(assessor, query)()
        assert set(_grid_arrays(assessor)) == self.HELD | {"_pab"}
