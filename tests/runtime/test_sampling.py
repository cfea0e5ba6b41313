"""Tests for the vectorised sampling contracts and demand scripts.

The parallel runtime's whole determinism story rests on one invariant:
every block draw (``sample_many`` / ``sample_pairs`` / ``sample_chain``)
is bit-identical to the scalar reference draws (``*_scalar``) on a
generator in the same state.  These tests assert that invariant for
every distribution and outcome model, and exercise the scripted
replay adapters built on top of it.
"""

import numpy as np
import pytest

from repro.common.errors import SimulationError, ValidationError
from repro.common.seeding import SeedSequenceFactory
from repro.experiments import paper_params as P
from repro.runtime.sampling import (
    ScriptedDistribution,
    ScriptedJointOutcomeModel,
    build_demand_script,
)
from repro.simulation.correlation import (
    ChainedOutcomeModel,
    ConditionalOutcomeMatrix,
    ConditionalOutcomeModel,
    IndependentOutcomeModel,
    OutcomeDistribution,
)
from repro.simulation.distributions import (
    Deterministic,
    Exponential,
    LogNormal,
    ShiftedExponential,
    Uniform,
    WithHangs,
)
from repro.simulation.outcomes import OUTCOME_ORDER, Outcome


DISTRIBUTIONS = [
    Exponential(0.7),
    Deterministic(1.3),
    Uniform(0.2, 2.5),
    LogNormal(0.6, 0.25),
    ShiftedExponential(0.1, 0.5),
    WithHangs(Exponential(0.7), 0.1),
    WithHangs(LogNormal(0.5, 0.3), 0.04),
]


class TestBlockScalarEquivalence:
    @pytest.mark.parametrize(
        "dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__ + repr(d.mean)
    )
    def test_sample_many_matches_scalar_reference(self, dist):
        block = dist.sample_many(np.random.default_rng(7), 500)
        scalar = dist.sample_many_scalar(np.random.default_rng(7), 500)
        np.testing.assert_array_equal(block, scalar)

    @pytest.mark.parametrize(
        "dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__ + repr(d.mean)
    )
    def test_generator_state_identical_after_draws(self, dist):
        rng_block = np.random.default_rng(7)
        rng_scalar = np.random.default_rng(7)
        dist.sample_many(rng_block, 200)
        dist.sample_many_scalar(rng_scalar, 200)
        # Same stream position afterwards: the next draw agrees.
        assert rng_block.random() == rng_scalar.random()

    def test_outcome_distribution_block_matches_scalar(self):
        marginal = OutcomeDistribution(0.9, 0.05, 0.05)
        block = marginal.sample_many(np.random.default_rng(3), 400)
        scalar = marginal.sample_many_scalar(np.random.default_rng(3), 400)
        np.testing.assert_array_equal(block, scalar)

    @pytest.mark.parametrize("run", [1, 2, 3, 4])
    def test_conditional_pairs_block_matches_scalar(self, run):
        model = P.correlated_model(run)
        a1, b1 = model.sample_pairs(np.random.default_rng(11), 400)
        a2, b2 = model.sample_pairs_scalar(np.random.default_rng(11), 400)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    @pytest.mark.parametrize("run", [1, 4])
    def test_independent_pairs_block_matches_scalar(self, run):
        model = P.independent_model(run)
        assert isinstance(model, IndependentOutcomeModel)
        a1, b1 = model.sample_pairs(np.random.default_rng(5), 300)
        a2, b2 = model.sample_pairs_scalar(np.random.default_rng(5), 300)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_chained_block_matches_scalar(self, count):
        first, _ = P.TABLE3_MARGINALS[1]
        model = ChainedOutcomeModel(
            first, ConditionalOutcomeMatrix.symmetric(P.TABLE4_DIAGONALS[1])
        )
        block = model.sample_chain(np.random.default_rng(13), 300, count)
        scalar = model.sample_chain_scalar(
            np.random.default_rng(13), 300, count
        )
        np.testing.assert_array_equal(block, scalar)


class TestScriptedDistribution:
    def test_replays_values_in_order(self, rng):
        scripted = ScriptedDistribution(np.array([1.0, 2.0, 3.0]))
        assert [scripted.sample(rng) for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_returns_python_floats(self, rng):
        scripted = ScriptedDistribution(np.array([1.5]))
        assert type(scripted.sample(rng)) is float

    def test_exhaustion_raises(self, rng):
        scripted = ScriptedDistribution(np.array([1.0]))
        scripted.sample(rng)
        with pytest.raises(SimulationError):
            scripted.sample(rng)

    def test_exhaustion_reports_stream_and_cursor(self, rng):
        scripted = ScriptedDistribution(np.array([1.0]), name="script/t1")
        scripted.sample(rng)
        with pytest.raises(
            SimulationError, match=r"'script/t1'.*cursor 1 of 1"
        ):
            scripted.sample(rng)

    def test_sample_many_slices_and_tracks_cursor(self, rng):
        scripted = ScriptedDistribution(np.arange(5.0))
        np.testing.assert_array_equal(
            scripted.sample_many(rng, 3), [0.0, 1.0, 2.0]
        )
        assert scripted.remaining == 2
        with pytest.raises(SimulationError):
            scripted.sample_many(rng, 3)

    def test_sample_many_exhaustion_reports_stream_and_cursor(self, rng):
        scripted = ScriptedDistribution(np.arange(5.0), name="script/t2/1")
        scripted.sample_many(rng, 3)
        with pytest.raises(
            SimulationError,
            match=r"'script/t2/1'.*3 draws requested at cursor 3 of 5",
        ):
            scripted.sample_many(rng, 3)

    def test_mean_delegates_to_base(self):
        scripted = ScriptedDistribution(
            np.array([5.0, 5.0]), base=Exponential(0.7)
        )
        assert scripted.mean == pytest.approx(0.7)


class TestScriptedJointOutcomeModel:
    def test_count_mismatch_raises_validation_error(self, rng):
        scripted = ScriptedJointOutcomeModel(
            [(Outcome.CORRECT, Outcome.CORRECT)]
        )
        # Middleware catches ValidationError and falls back to marginals,
        # so a count mismatch must raise exactly that type.
        with pytest.raises(ValidationError):
            scripted.sample_tuple(rng, 3)

    def test_replays_pairs(self, rng):
        pair = (Outcome.CORRECT, Outcome.NON_EVIDENT_FAILURE)
        scripted = ScriptedJointOutcomeModel([pair])
        assert scripted.sample_pair(rng) == pair

    def test_exhaustion_reports_stream_and_cursor(self, rng):
        scripted = ScriptedJointOutcomeModel(
            [(Outcome.CORRECT, Outcome.CORRECT)]
        )
        scripted.sample_pair(rng)
        with pytest.raises(
            SimulationError, match=r"'script/outcomes'.*cursor 1 of 1"
        ):
            scripted.sample_pair(rng)


def scalar_script(joint_model, demand_difficulty, release_latencies,
                  requests, seeds):
    """Reference script: the same named streams, one scalar draw at a time.

    Returns ``(outcome_codes, t1, t2)`` as :func:`build_demand_script`
    would draw them, through the ``*_scalar`` reference methods.
    """
    first, second = joint_model.sample_pairs_scalar(
        seeds.generator("script/outcomes"), requests
    )
    codes = np.stack([first, second], axis=1)
    t1 = demand_difficulty.sample_many_scalar(
        seeds.generator("script/t1"), requests
    )
    t2 = [
        latency.sample_many_scalar(
            seeds.generator(f"script/t2/{index}"), requests
        )
        for index, latency in enumerate(release_latencies)
    ]
    return codes, t1, t2


class TestBuildDemandScript:
    ARGS = (
        P.correlated_model(1),
        Exponential(P.T1_MEAN),
        (Exponential(P.T2_MEAN), Exponential(P.T2_MEAN)),
        200,
    )

    def _build(self):
        return build_demand_script(*self.ARGS, SeedSequenceFactory(42))

    def test_vectorized_equals_scalar(self):
        fast = self._build()
        codes, t1, t2 = scalar_script(*self.ARGS, SeedSequenceFactory(42))
        np.testing.assert_array_equal(fast.outcome_codes, codes)
        assert fast.outcomes == [
            tuple(OUTCOME_ORDER[int(code)] for code in row) for row in codes
        ]
        np.testing.assert_array_equal(fast.t1, t1)
        assert len(fast.t2) == len(t2)
        for a, b in zip(fast.t2, t2):
            np.testing.assert_array_equal(a, b)

    def test_outcomes_are_outcome_tuples(self):
        script = self._build()
        assert len(script.outcomes) == 200
        assert all(
            len(row) == 2 and all(o in OUTCOME_ORDER for o in row)
            for row in script.outcomes
        )

    def test_outcome_codes_mirror_outcome_tuples(self):
        # The columnar backend consumes the raw code matrix; it must be
        # the same draw as the Outcome tuples, not a second one.
        script = self._build()
        assert script.outcome_codes.shape == (200, 2)
        assert script.outcomes == [
            tuple(OUTCOME_ORDER[int(code)] for code in row)
            for row in script.outcome_codes
        ]

    def test_rejects_nonpositive_requests(self):
        with pytest.raises(ValidationError):
            build_demand_script(
                None, Exponential(0.7), (Exponential(0.7),),
                0, SeedSequenceFactory(1),
            )
