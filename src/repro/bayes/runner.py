"""Sequential assessment along a demand stream with checkpointing.

This drives the paper's §5.1 studies: simulate a demand stream from a
:class:`~repro.bayes.demand_process.TwoReleaseGroundTruth`, pass the true
failure indicators through a detection model, and re-evaluate the
white-box posterior at regular checkpoints.  Each checkpoint records the
posterior percentiles and the confidences needed by the three switching
criteria (which live in :mod:`repro.core.switching`).
"""

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.bayes.counts import JointCounts
from repro.bayes.demand_process import TwoReleaseGroundTruth
from repro.bayes.detection import DetectionModel
from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.obs.trace import Tracer


@dataclass(frozen=True)
class CheckpointRecord:
    """Posterior summary after ``demands`` demands have been observed.

    Attributes
    ----------
    demands:
        Number of demands seen at this checkpoint (the x-axis of the
        paper's Figs 7-8).
    counts:
        Cumulative *observed* Table-1 counts (after imperfect detection).
    percentile_a_99, percentile_b_99:
        The paper's TA99% / TB99% posterior pfd bounds.
    percentile_b_90:
        TB90%, plotted in Figs 7-8 to bound the detection-imperfection
        confidence error.
    confidence_b_at:
        P(pB <= target) for each requested target pfd (Criteria 1 and 2).
    """

    demands: int
    counts: JointCounts
    percentile_a_99: float
    percentile_b_99: float
    percentile_b_90: float
    confidence_b_at: Dict[float, float] = field(default_factory=dict)

    def confidence_b(self, target: float) -> float:
        """Recorded P(pB <= target); raises KeyError for unrequested targets."""
        return self.confidence_b_at[target]


#: One checkpoint's ``checkpoint_summary`` answer: TA99%, (TB99%, TB90%)
#: and P(pB <= target) per confidence target.
Summary = Tuple[List[float], List[float], List[float]]


class _StreamPass:
    """One pass over one demand stream: the checkpoint summaries its
    detection regimes evaluated, by cumulative counts.

    The regimes of a stream observe the same true failures, so until a
    regime first distorts one they reach the same count vectors.  A
    regime that already ran in the pass starts a new one, so a re-run
    of a stream always evaluates its posteriors again.
    """

    __slots__ = ("stream", "regimes", "summaries")

    def __init__(self, stream: Hashable):
        self.stream = stream
        self.regimes: Set[str] = set()
        self.summaries: Dict[Tuple[int, int, int, int], Summary] = {}


#: The assessor :meth:`SequentialAssessment.run` uses when it is given
#: none, kept for the process's next run with the same prior and grid.
_reused_assessor: Optional[WhiteBoxAssessor] = None

#: The process's current stream pass (see :class:`_StreamPass`).
_current_pass = _StreamPass(None)


def _mismatch(
    assessor: WhiteBoxAssessor, prior: WhiteBoxPrior, grid: GridSpec
) -> Optional[str]:
    """Why *assessor* cannot serve (*prior*, *grid*), or ``None``.

    Grids compare by equality, priors by ``repr`` (which encodes their
    parameters).
    """
    if assessor.grid != grid:
        return (
            f"assessor grid {assessor.grid!r} differs from the "
            f"assessment's grid {grid!r}"
        )
    if repr(assessor.prior) != repr(prior):
        return (
            f"assessor prior {assessor.prior!r} differs from the "
            f"assessment's prior {prior!r}"
        )
    return None


def _reused_for(prior: WhiteBoxPrior, grid: GridSpec) -> WhiteBoxAssessor:
    """The process's reused assessor for (*prior*, *grid*).

    An assessor for another prior or grid is released before the new
    one is built, so one set of grid-sized tables is alive at a time.
    """
    global _reused_assessor
    if (
        _reused_assessor is None
        or _mismatch(_reused_assessor, prior, grid) is not None
    ):
        _reused_assessor = None
        _reused_assessor = WhiteBoxAssessor(prior, grid)
    return _reused_assessor


def _pass_summaries(
    stream: Hashable, regime: str
) -> Dict[Tuple[int, int, int, int], Summary]:
    """The summaries of *stream*'s current pass, which *regime* joins."""
    global _current_pass
    if _current_pass.stream != stream or regime in _current_pass.regimes:
        _current_pass = _StreamPass(stream)
    _current_pass.regimes.add(regime)
    return _current_pass.summaries


@dataclass
class AssessmentHistory:
    """The full trajectory of one sequential assessment run."""

    ground_truth: TwoReleaseGroundTruth
    detection_name: str
    records: List[CheckpointRecord] = field(default_factory=list)

    @property
    def demand_axis(self) -> List[int]:
        """Checkpoint positions (number of demands)."""
        return [record.demands for record in self.records]

    def series(self, attribute: str) -> List[float]:
        """Extract one percentile series, e.g. ``series('percentile_b_99')``."""
        return [getattr(record, attribute) for record in self.records]

    def confidence_series(self, target: float) -> List[float]:
        """P(pB <= target) at every checkpoint."""
        return [record.confidence_b(target) for record in self.records]

    def final(self) -> CheckpointRecord:
        """The last checkpoint."""
        if not self.records:
            raise ValueError("assessment produced no checkpoints")
        return self.records[-1]


class SequentialAssessment:
    """Run one §5.1 Monte-Carlo study end to end.

    Parameters
    ----------
    ground_truth:
        True failure process of the release pair.
    detection:
        The (possibly imperfect) failure-detection model.
    prior:
        White-box prior for the assessor.
    total_demands:
        Length of the demand stream (the paper uses 50,000).
    checkpoint_every:
        Spacing of posterior evaluations.
    confidence_targets:
        pfd targets at which P(pB <= target) is recorded each checkpoint
        (Criterion 1 passes the prior's TA99%; Criterion 2 passes the
        explicit target, 1e-3 in the paper).
    grid:
        Posterior grid resolution.
    """

    def __init__(
        self,
        ground_truth: TwoReleaseGroundTruth,
        detection: DetectionModel,
        prior: WhiteBoxPrior,
        total_demands: int,
        checkpoint_every: int,
        confidence_targets: Sequence[float] = (),
        grid: GridSpec = GridSpec(),
    ):
        if total_demands <= 0:
            raise ConfigurationError(
                f"total_demands must be > 0: {total_demands!r}"
            )
        if checkpoint_every <= 0:
            raise ConfigurationError(
                f"checkpoint_every must be > 0: {checkpoint_every!r}"
            )
        self.ground_truth = ground_truth
        self.detection = detection
        self.prior = prior
        self.total_demands = int(total_demands)
        self.checkpoint_every = int(checkpoint_every)
        self.confidence_targets = tuple(confidence_targets)
        self.grid = grid

    def checkpoints(self) -> List[int]:
        """Demand counts at which the posterior is evaluated."""
        points = list(
            range(
                self.checkpoint_every,
                self.total_demands + 1,
                self.checkpoint_every,
            )
        )
        if not points or points[-1] != self.total_demands:
            points.append(self.total_demands)
        return points

    def run(
        self,
        rng: np.random.Generator,
        assessor: Optional[WhiteBoxAssessor] = None,
        tracer: Optional[Tracer] = None,
    ) -> AssessmentHistory:
        """Simulate the stream and assess at each checkpoint.

        Without an *assessor*, the run takes the process's reused one
        for its prior and grid, built on first use (the five likelihood
        tables are the costly part of an assessor).  A run with another
        prior or grid releases it before building the next, so at most
        one is alive per process.  Such a run also joins the current
        pass over its stream — the rng's initial state, the ground
        truth, the sizes, the prior, the grid, the confidence targets
        and the ``checkpoint_summary`` that evaluates them — and takes
        the summary of a count vector another detection regime of the
        pass already evaluated instead of evaluating it again.  A regime
        that already ran in the pass starts a new one, so re-running a
        stream evaluates every checkpoint again.  Memoised or not, every
        record is IEEE-bit identical to a fresh assessor's.

        A supplied *assessor* is reset and evaluates every checkpoint;
        one built for another grid (compared by equality) or prior
        (compared by ``repr``, which encodes its parameters) raises
        :class:`~repro.common.errors.ConfigurationError`.  A *tracer* (see
        :mod:`repro.obs.trace`) receives one ``checkpoint`` event per
        checkpoint — the demand count, the cumulative Table-1 counts and
        the recorded percentiles; fields are functions of the seeded
        stream only, so the trace is reproducible.
        """
        if assessor is None:
            assessor = _reused_for(self.prior, self.grid)
            summaries = _pass_summaries(
                (
                    repr(rng.bit_generator.state),
                    self.ground_truth,
                    self.total_demands,
                    self.checkpoint_every,
                    repr(self.prior),
                    self.grid,
                    self.confidence_targets,
                    type(assessor).checkpoint_summary,
                ),
                repr(self.detection),
            )
        else:
            problem = _mismatch(assessor, self.prior, self.grid)
            if problem is not None:
                raise ConfigurationError(problem)
            # Counts grow with every checkpoint, so a memo of one run
            # alone never hits.
            summaries = {}
        assessor.reset()
        trace = tracer if tracer is not None and tracer.enabled else None

        a_true, b_true = self.ground_truth.sample(rng, self.total_demands)
        a_obs, b_obs = self.detection.observe(a_true, b_true, rng)

        # Cumulative counts are cheap to compute at every checkpoint from
        # prefix sums; the posterior only ever sees cumulative counts.
        a_cum = np.cumsum(a_obs.astype(np.int64))
        b_cum = np.cumsum(b_obs.astype(np.int64))
        both_cum = np.cumsum((a_obs & b_obs).astype(np.int64))

        history = AssessmentHistory(
            ground_truth=self.ground_truth,
            detection_name=self.detection.name,
        )
        for n in self.checkpoints():
            r_a = int(a_cum[n - 1])
            r_b = int(b_cum[n - 1])
            r_both = int(both_cum[n - 1])
            counts = JointCounts(
                both_fail=r_both,
                only_first_fails=r_a - r_both,
                only_second_fails=r_b - r_both,
                both_succeed=n - r_a - r_b + r_both,
            )
            summary = summaries.get(counts.as_tuple())
            if summary is None:
                assessor.replace_counts(counts)
                # One posterior evaluation answers every checkpoint
                # query (bit-identical to the individual percentile_* /
                # confidence_* calls — see checkpoint_summary).
                summary = assessor.checkpoint_summary(
                    levels_a=(0.99,),
                    levels_b=(0.99, 0.90),
                    targets_b=self.confidence_targets,
                )
                summaries[counts.as_tuple()] = summary
            (pa99,), (pb99, pb90), confidences = summary
            record = CheckpointRecord(
                demands=n,
                counts=counts,
                percentile_a_99=pa99,
                percentile_b_99=pb99,
                percentile_b_90=pb90,
                confidence_b_at=dict(
                    zip(self.confidence_targets, confidences)
                ),
            )
            history.records.append(record)
            if trace is not None:
                trace.emit(
                    "checkpoint",
                    demands=n,
                    both_fail=counts.both_fail,
                    only_first_fails=counts.only_first_fails,
                    only_second_fails=counts.only_second_fails,
                    both_succeed=counts.both_succeed,
                    percentile_a_99=record.percentile_a_99,
                    percentile_b_99=record.percentile_b_99,
                    percentile_b_90=record.percentile_b_90,
                )
        return history
