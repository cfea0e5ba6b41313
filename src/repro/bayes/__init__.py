"""Bayesian confidence assessment (paper Section 5.1).

The paper measures *confidence in correctness* of a Web Service release as
a posterior probability that its probability of failure on demand (pfd)
meets a target.  Two inference modes are implemented:

* **black-box** (eq. 1, Fig. 6): one release observed in isolation; the
  pfd prior is a (truncated) Beta and the likelihood binomial;
* **white-box** (eq. 2-6, Table 1): two releases observed jointly; the
  prior is trivariate over ``(pA, pB, pAB)`` with independent truncated
  Beta marginals and ``pAB | pA, pB ~ Uniform(0, min(pA, pB))``.

Supporting pieces: the ground-truth demand process used by the paper's
Monte-Carlo study, the imperfect failure-detection models of §5.1.1.3
(oracle omission and back-to-back testing), and a sequential runner that
re-evaluates the posterior at checkpoints along a demand stream.
"""

from repro.bayes.attributes import (
    AvailabilityAssessor,
    ResponsivenessAssessor,
)
from repro.bayes.beta import TruncatedBeta
from repro.bayes.counts import JointCounts
from repro.bayes.blackbox import BlackBoxAssessor
from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.bayes.demand_process import TwoReleaseGroundTruth
from repro.bayes.detection import (
    BackToBackDetection,
    DetectionModel,
    FalseAlarmDetection,
    OmissionDetection,
    PerfectDetection,
)
from repro.bayes.runner import (
    AssessmentHistory,
    CheckpointRecord,
    SequentialAssessment,
)
from repro.bayes.stopping import (
    classical_demands_required,
    expected_demands_required,
    failure_free_demands_required,
    plan_managed_upgrade,
)

__all__ = [
    "AvailabilityAssessor",
    "ResponsivenessAssessor",
    "TruncatedBeta",
    "JointCounts",
    "BlackBoxAssessor",
    "GridSpec",
    "WhiteBoxPrior",
    "WhiteBoxAssessor",
    "TwoReleaseGroundTruth",
    "DetectionModel",
    "PerfectDetection",
    "OmissionDetection",
    "BackToBackDetection",
    "FalseAlarmDetection",
    "AssessmentHistory",
    "CheckpointRecord",
    "SequentialAssessment",
    "classical_demands_required",
    "expected_demands_required",
    "failure_free_demands_required",
    "plan_managed_upgrade",
]
