"""An assessment grid's posterior evaluations, planned as one batch.

The cells of an assessment grid (Table 2, Figs 7-8, the robustness
table) observe each demand stream through several detection regimes,
which reach the same cumulative counts until a regime first distorts a
failure.  :func:`assess_planned` draws every cell's checkpoint counts,
evaluates each distinct count vector once, in even shares that a caller
fans over a pool, and assembles each cell's history from the summaries,
writing a traced cell's checkpoint events as it goes.

The experiment layer imports this module when its first plan runs, so
a process that never assesses does not compile it at start-up.
"""

import itertools
import operator
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.bayes.runner import (
    AssessmentHistory,
    SequentialAssessment,
    Summary,
    Vector,
    evaluate,
)
from repro.obs.trace import JsonlTracer

#: The part of a share that one prior serves: :func:`evaluate`'s
#: arguments (prior, grid, confidence targets, count vectors).
Segment = Tuple[WhiteBoxPrior, GridSpec, Tuple[float, ...], List[Vector]]

#: How :func:`assess_planned` runs its tasks: ``fan_out(fn, tasks,
#: serves)`` calls ``fn(*task)`` for every task and returns the results
#: in task order; ``serves[i]`` lists the runs task *i* evaluates for,
#: so a fault can name them.
FanOut = Callable[
    [Callable[..., Any], Sequence[Tuple[Any, ...]], Sequence[List[int]]],
    List[Any],
]


def evaluate_share(segments: Sequence[Segment]) -> List[Summary]:
    """Every summary of one share, segment by segment, in order.

    Module-level, so a pool worker can run it; each segment evaluates on
    the worker's reused assessor for its prior and grid.
    """
    return [summary for segment in segments for summary in evaluate(*segment)]


def _evaluation_key(assessment: SequentialAssessment) -> Hashable:
    """What a checkpoint's summary depends on besides its counts."""
    return (
        repr(assessment.prior),
        assessment.grid,
        assessment.confidence_targets,
    )


def assess_planned(
    runs: Sequence[Tuple[SequentialAssessment, np.random.Generator]],
    shares: int,
    fan_out: FanOut,
    traces: Optional[Sequence[Optional[Tuple[str, str]]]] = None,
) -> List[AssessmentHistory]:
    """Run many assessments, evaluating each distinct count vector once.

    First every run draws its checkpoint counts
    (:meth:`SequentialAssessment.checkpoint_counts`).  The runs that
    share a prior (by ``repr``), a grid and confidence targets share
    their distinct count vectors, in first-appearance order, and these
    lists, one after another in the order of their first runs, form one
    list of evaluations.  That list is cut into at most *shares*
    contiguous shares whose sizes differ by at most one, and *fan_out*
    runs one :func:`evaluate_share` task per share.  Only a cut inside
    one prior's vectors makes two shares use that prior, so the shares
    build at most ``shares + priors - 1`` assessors between them, one at
    a time in each process.  Every history is then assembled from the
    summaries.

    Each vector is evaluated exactly once whatever *shares* is, and a
    summary depends only on its prior, grid, targets and counts, so the
    histories are IEEE-bit identical to :meth:`SequentialAssessment.run`
    on a fresh assessor per run, for any *shares* and any *fan_out*.
    Histories come back in *runs* order.

    *traces*, when given, holds a ``(path, cell)`` pair or ``None`` per
    run.  A run with a pair writes one ``checkpoint`` event per
    checkpoint to a :class:`~repro.obs.trace.JsonlTracer` on *path*
    labelled *cell*, opened only while :meth:`SequentialAssessment.assemble`
    builds that run's history — after the fan-out, so no pool worker
    inherits an open file.  The file is byte-equal to the trace
    :meth:`SequentialAssessment.run` writes for the run.
    """
    counts = [assessment.checkpoint_counts(rng) for assessment, rng in runs]
    keys = [_evaluation_key(assessment) for assessment, _rng in runs]
    # Evaluation key -> (its first run, each distinct vector's runs).
    plans: Dict[
        Hashable, Tuple[SequentialAssessment, Dict[Vector, List[int]]]
    ] = {}
    for index, ((assessment, _rng), key, checkpoints) in enumerate(
        zip(runs, keys, counts)
    ):
        _first, users = plans.setdefault(key, (assessment, {}))
        # Counts sum to the demands seen, so a run reaches each vector
        # at most once.
        for checkpoint in checkpoints:
            users.setdefault(checkpoint.as_tuple(), []).append(index)
    evaluations = [
        (key, vector) for key, (_first, users) in plans.items()
        for vector in users
    ]
    parts = max(1, min(shares, len(evaluations)))
    bounds = [len(evaluations) * part // parts for part in range(parts + 1)]
    tasks: List[Tuple[List[Segment]]] = []
    serves: List[List[int]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        segments: List[Segment] = []
        served = set()
        for key, run in itertools.groupby(
            evaluations[lo:hi], key=operator.itemgetter(0)
        ):
            first, users = plans[key]
            vectors = [vector for _key, vector in run]
            segments.append(
                (first.prior, first.grid, first.confidence_targets, vectors)
            )
            served.update(index for vector in vectors for index in users[vector])
        tasks.append((segments,))
        serves.append(sorted(served))
    summaries = dict(
        zip(
            evaluations,
            itertools.chain.from_iterable(
                fan_out(evaluate_share, tasks, serves)
            ),
        )
    )
    histories = []
    for (assessment, _rng), key, checkpoints, trace in zip(
        runs, keys, counts, traces or itertools.repeat(None)
    ):
        answers = [
            summaries[key, checkpoint.as_tuple()] for checkpoint in checkpoints
        ]
        tracer = None if trace is None else JsonlTracer(trace[0], cell=trace[1])
        try:
            histories.append(assessment.assemble(checkpoints, answers, tracer))
        finally:
            if tracer is not None:
                tracer.close()
    return histories
