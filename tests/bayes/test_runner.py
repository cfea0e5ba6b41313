"""Unit tests for the sequential assessment runner."""

import numpy as np
import pytest

from repro.bayes.demand_process import TwoReleaseGroundTruth
from repro.bayes.detection import OmissionDetection, PerfectDetection
from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.bayes.runner import SequentialAssessment
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.common.errors import ConfigurationError


@pytest.fixture
def ground_truth():
    return TwoReleaseGroundTruth(0.01, 0.3, 0.005)


def make_assessment(ground_truth, prior, **kwargs):
    defaults = dict(
        detection=PerfectDetection(),
        prior=prior,
        total_demands=2_000,
        checkpoint_every=500,
        confidence_targets=(1e-3,),
        grid=GridSpec(48, 48, 16),
    )
    defaults.update(kwargs)
    return SequentialAssessment(ground_truth, **defaults)


class TestCheckpoints:
    def test_checkpoint_positions(self, ground_truth, scenario1_prior):
        assessment = make_assessment(ground_truth, scenario1_prior)
        assert assessment.checkpoints() == [500, 1000, 1500, 2000]

    def test_final_checkpoint_always_present(
        self, ground_truth, scenario1_prior
    ):
        assessment = make_assessment(
            ground_truth, scenario1_prior,
            total_demands=1_234, checkpoint_every=500,
        )
        assert assessment.checkpoints()[-1] == 1_234

    def test_rejects_bad_parameters(self, ground_truth, scenario1_prior):
        with pytest.raises(ConfigurationError):
            make_assessment(ground_truth, scenario1_prior, total_demands=0)
        with pytest.raises(ConfigurationError):
            make_assessment(
                ground_truth, scenario1_prior, checkpoint_every=0
            )


class TestRun:
    def test_history_shape(self, ground_truth, scenario1_prior, rng):
        assessment = make_assessment(ground_truth, scenario1_prior)
        history = assessment.run(rng)
        assert history.demand_axis == [500, 1000, 1500, 2000]
        assert len(history.series("percentile_b_99")) == 4
        assert history.detection_name == "perfect"
        assert history.final().demands == 2_000

    def test_counts_are_cumulative(self, ground_truth, scenario1_prior, rng):
        history = make_assessment(ground_truth, scenario1_prior).run(rng)
        totals = [record.counts.total for record in history.records]
        assert totals == [500, 1000, 1500, 2000]
        failures = [record.counts.first_failures for record in history.records]
        assert failures == sorted(failures)

    def test_confidence_targets_recorded(
        self, ground_truth, scenario1_prior, rng
    ):
        history = make_assessment(ground_truth, scenario1_prior).run(rng)
        series = history.confidence_series(1e-3)
        assert len(series) == 4
        assert all(0.0 <= c <= 1.0 for c in series)

    def test_unrequested_target_raises(
        self, ground_truth, scenario1_prior, rng
    ):
        history = make_assessment(ground_truth, scenario1_prior).run(rng)
        with pytest.raises(KeyError):
            history.records[0].confidence_b(2e-3)

    def test_reusing_assessor_resets_it(
        self, ground_truth, scenario1_prior, rng
    ):
        grid = GridSpec(48, 48, 16)
        assessor = WhiteBoxAssessor(scenario1_prior, grid)
        assessment = make_assessment(ground_truth, scenario1_prior, grid=grid)
        first = assessment.run(np.random.default_rng(1), assessor=assessor)
        second = assessment.run(np.random.default_rng(1), assessor=assessor)
        # Identical seeds + reset assessor => identical histories.
        assert first.records[-1].counts == second.records[-1].counts
        assert first.records[-1].percentile_b_99 == pytest.approx(
            second.records[-1].percentile_b_99
        )

    def test_assessor_for_another_grid_is_refused(
        self, ground_truth, scenario1_prior, rng
    ):
        assessor = WhiteBoxAssessor(scenario1_prior, GridSpec(40, 40, 16))
        assessment = make_assessment(ground_truth, scenario1_prior)
        with pytest.raises(ConfigurationError, match="grid"):
            assessment.run(rng, assessor=assessor)

    def test_assessor_for_another_prior_is_refused(
        self, ground_truth, scenario1_prior, rng
    ):
        other = WhiteBoxPrior(
            scenario1_prior.marginal_b, scenario1_prior.marginal_a
        )
        assessor = WhiteBoxAssessor(other, GridSpec(48, 48, 16))
        assessment = make_assessment(ground_truth, scenario1_prior)
        with pytest.raises(ConfigurationError, match="prior"):
            assessment.run(rng, assessor=assessor)

    def test_detection_model_applied(self, ground_truth, scenario1_prior):
        perfect = make_assessment(ground_truth, scenario1_prior).run(
            np.random.default_rng(5)
        )
        omission = make_assessment(
            ground_truth, scenario1_prior,
            detection=OmissionDetection(0.9),
        ).run(np.random.default_rng(5))
        # Massive omission hides most failures.
        assert (
            omission.final().counts.first_failures
            < perfect.final().counts.first_failures
        )

    def test_empty_history_final_raises(self, ground_truth, scenario1_prior):
        from repro.bayes.runner import AssessmentHistory

        history = AssessmentHistory(ground_truth, "perfect")
        with pytest.raises(ValueError):
            history.final()
