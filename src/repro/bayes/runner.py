"""Sequential assessment along a demand stream with checkpointing.

This drives the paper's §5.1 studies: simulate a demand stream from a
:class:`~repro.bayes.demand_process.TwoReleaseGroundTruth`, pass the true
failure indicators through a detection model, and re-evaluate the
white-box posterior at regular checkpoints.  Each checkpoint records the
posterior percentiles and the confidences needed by the three switching
criteria (which live in :mod:`repro.core.switching`).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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

#: A checkpoint's cumulative counts as the posterior sees them:
#: (r1, r2, r3, r4), the order of :meth:`JointCounts.as_tuple`.
Vector = Tuple[int, int, int, int]

#: The posterior levels every checkpoint records: TA99%, then TB99% and
#: TB90%.
LEVELS_A = (0.99,)
LEVELS_B = (0.99, 0.90)

#: The assessor :meth:`SequentialAssessment.run` and :func:`evaluate`
#: use, kept for the process's next evaluation with the same prior and
#: grid.
_reused_assessor: Optional[WhiteBoxAssessor] = None


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


def _summary(
    assessor: WhiteBoxAssessor,
    counts: JointCounts,
    targets: Sequence[float],
) -> Summary:
    """One checkpoint's summary: exactly one posterior evaluation, which
    answers every query (bit-identical to the individual percentile_* /
    confidence_* calls — see ``checkpoint_summary``)."""
    assessor.replace_counts(counts)
    return assessor.checkpoint_summary(
        levels_a=LEVELS_A, levels_b=LEVELS_B, targets_b=targets
    )


def evaluate(
    prior: WhiteBoxPrior,
    grid: GridSpec,
    targets: Sequence[float],
    vectors: Sequence[Vector],
) -> List[Summary]:
    """The summary of each count vector, in order, one evaluation each,
    on the process's reused assessor for (*prior*, *grid*).

    A plan's shares call it (see
    :func:`repro.bayes.evaluation_plan.assess_planned`).
    """
    assessor = _reused_for(prior, grid)
    return [
        _summary(assessor, JointCounts(*vector), targets)
        for vector in vectors
    ]


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

        The run is its two halves in a row: :meth:`checkpoint_counts`
        draws the stream and its cumulative counts, then every
        checkpoint is evaluated once and :meth:`assemble` builds the
        history.  Without an *assessor*, the run evaluates on the
        process's reused one for its prior and grid, built on first use
        (the five likelihood tables are the costly part of an
        assessor); a run with another prior or grid releases it before
        building the next, so at most one is alive per process.  An
        assessment grid runs its cells, traced or not, through
        :func:`repro.bayes.evaluation_plan.assess_planned` instead,
        which evaluates each distinct count vector once across the
        grid; this method is the per-cell reference that plan is held
        to, with IEEE-bit identical records and byte-equal traces.

        A supplied *assessor* is reset and evaluates every checkpoint;
        one built for another grid (compared by equality) or prior
        (compared by ``repr``, which encodes its parameters) raises
        :class:`~repro.common.errors.ConfigurationError`.  A *tracer*
        receives one ``checkpoint`` event per checkpoint (see
        :meth:`assemble`).
        """
        if assessor is None:
            assessor = _reused_for(self.prior, self.grid)
        else:
            problem = _mismatch(assessor, self.prior, self.grid)
            if problem is not None:
                raise ConfigurationError(problem)
        assessor.reset()
        counts = self.checkpoint_counts(rng)
        return self.assemble(
            counts,
            [
                _summary(assessor, checkpoint, self.confidence_targets)
                for checkpoint in counts
            ],
            tracer,
        )

    def checkpoint_counts(
        self, rng: np.random.Generator
    ) -> List[JointCounts]:
        """The cumulative observed Table-1 counts at every checkpoint.

        The cheap half of :meth:`run`: it draws the true failures from
        *rng*, passes them through the detection model (which draws from
        the same generator after the stream) and reads the counts off
        prefix sums — the posterior only ever sees cumulative counts.
        """
        a_true, b_true = self.ground_truth.sample(rng, self.total_demands)
        a_obs, b_obs = self.detection.observe(a_true, b_true, rng)
        a_cum = np.cumsum(a_obs.astype(np.int64))
        b_cum = np.cumsum(b_obs.astype(np.int64))
        both_cum = np.cumsum((a_obs & b_obs).astype(np.int64))
        counts = []
        for n in self.checkpoints():
            r_a = int(a_cum[n - 1])
            r_b = int(b_cum[n - 1])
            r_both = int(both_cum[n - 1])
            counts.append(
                JointCounts(
                    both_fail=r_both,
                    only_first_fails=r_a - r_both,
                    only_second_fails=r_b - r_both,
                    both_succeed=n - r_a - r_b + r_both,
                )
            )
        return counts

    def assemble(
        self,
        counts: Sequence[JointCounts],
        summaries: Sequence[Summary],
        tracer: Optional[Tracer] = None,
    ) -> AssessmentHistory:
        """The history of :meth:`checkpoint_counts`' *counts* and each
        checkpoint's ``checkpoint_summary`` answer, in checkpoint order.

        Every record is a new object, its confidences a new dict, even
        where two records share one summary.  A *tracer* (see
        :mod:`repro.obs.trace`) receives one ``checkpoint`` event per
        checkpoint — the demand count, the cumulative Table-1 counts
        and the recorded percentiles; fields are functions of the
        seeded stream only, so the trace is reproducible.
        """
        trace = tracer if tracer is not None and tracer.enabled else None
        history = AssessmentHistory(
            ground_truth=self.ground_truth,
            detection_name=self.detection.name,
        )
        for n, checkpoint, summary in zip(
            self.checkpoints(), counts, summaries
        ):
            (pa99,), (pb99, pb90), confidences = summary
            record = CheckpointRecord(
                demands=n,
                counts=checkpoint,
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
                    both_fail=checkpoint.both_fail,
                    only_first_fails=checkpoint.only_first_fails,
                    only_second_fails=checkpoint.only_second_fails,
                    both_succeed=checkpoint.both_succeed,
                    percentile_a_99=record.percentile_a_99,
                    percentile_b_99=record.percentile_b_99,
                    percentile_b_90=record.percentile_b_90,
                )
        return history
