"""The sequential runner's reused assessor and per-stream summary memo.

Without an explicit assessor, :meth:`SequentialAssessment.run` keeps one
white-box assessor per process for the runs that share a prior and a
grid, and answers a checkpoint whose cumulative counts another
detection regime of the same stream already evaluated from a memo.
These tests hold that path IEEE-bit identical to a fresh assessor per
run, at most one assessor alive, and every re-run of a stream a new
computation.
"""

import os
import weakref

import numpy as np
import pytest

from repro.bayes import runner
from repro.bayes.beta import TruncatedBeta
from repro.bayes.demand_process import TwoReleaseGroundTruth
from repro.bayes.detection import (
    DetectionModel,
    OmissionDetection,
    PerfectDetection,
)
from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.bayes.runner import SequentialAssessment
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.pipeline import ExperimentOptions, build_grid, discover, get_spec
from repro.runtime.parallel import run_cells

discover()

#: A grid no other test module uses, so the first run here builds.
GRID = GridSpec(40, 40, 12)

PRIOR = WhiteBoxPrior(
    TruncatedBeta(2, 8, upper=0.2), TruncatedBeta(2, 8, upper=0.2)
)
SWAPPED = WhiteBoxPrior(
    TruncatedBeta(2, 8, upper=0.2), TruncatedBeta(3, 8, upper=0.2)
)


def record_bits(history):
    """Every recorded value of *history*, floats as their exact bits."""
    return [
        (
            record.demands,
            record.counts.as_tuple(),
            record.percentile_a_99.hex(),
            record.percentile_b_99.hex(),
            record.percentile_b_90.hex(),
            [(t, c.hex()) for t, c in record.confidence_b_at.items()],
        )
        for record in history.records
    ]


def count_evaluations(monkeypatch):
    """Count ``checkpoint_summary`` calls from here on (a one-item list)."""
    calls = [0]
    original = WhiteBoxAssessor.checkpoint_summary

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WhiteBoxAssessor, "checkpoint_summary", counted)
    return calls


def halve_confidences(monkeypatch):
    """Patch ``checkpoint_summary`` to halve every confidence."""
    original = WhiteBoxAssessor.checkpoint_summary

    def halved(self, *args, **kwargs):
        pa, pb, confidences = original(self, *args, **kwargs)
        return pa, pb, [c * 0.5 for c in confidences]

    monkeypatch.setattr(WhiteBoxAssessor, "checkpoint_summary", halved)


class ScriptedDetection(DetectionModel):
    """Observes a fixed failure script, whatever the stream holds."""

    def __init__(self, name, script):
        self.name = name
        self._a = np.array([a for a, _b in script], dtype=bool)
        self._b = np.array([b for _a, b in script], dtype=bool)

    def observe(self, a_fails, b_fails, rng):
        return self._a.copy(), self._b.copy()

    def __repr__(self):
        return f"ScriptedDetection({self.name!r})"


def assessment(detection, prior=PRIOR, grid=GRID):
    """An 8-demand stream with a checkpoint every 2 demands."""
    return SequentialAssessment(
        TwoReleaseGroundTruth(0.05, 0.05, 0.02),
        detection,
        prior,
        total_demands=8,
        checkpoint_every=2,
        confidence_targets=(0.01, 0.1),
        grid=grid,
    )


def fresh(detection, prior=PRIOR, grid=GRID, seed=7):
    """The reference: a new assessor, every checkpoint evaluated."""
    return assessment(detection, prior, grid).run(
        np.random.default_rng(seed), assessor=WhiteBoxAssessor(prior, grid)
    )


#: Per-demand (A observed failing, B observed failing).  Checkpoints
#: fall every 2 demands, so each regime reaches four count vectors
#: (both fail, only A, only B, neither).
BOTH, ONLY_A, NONE = (True, True), (True, False), (False, False)
SCRIPTS = {
    # (2,0,0,0): every demand failed, so r00 = 0; then (2,0,0,2) ...
    "both-first": [BOTH, BOTH, NONE, NONE, NONE, NONE, NONE, NONE],
    # Shares (2,0,0,0) and (2,0,0,2), then (2,1,0,3) and (2,1,0,5).
    "a-at-5": [BOTH, BOTH, NONE, NONE, ONLY_A, NONE, NONE, NONE],
    # Revisits both-first's (2,0,0,4) at 6 and a-at-5's (2,1,0,5) at 8.
    "a-at-7": [BOTH, BOTH, NONE, NONE, NONE, NONE, ONLY_A, NONE],
    # All-zero failure counts: (0,0,0,2), (0,0,0,4), ...
    "silent": [NONE] * 8,
}


class TestSummaryMemo:
    def test_count_sequences_match_a_fresh_assessor(self, monkeypatch):
        regimes = [ScriptedDetection(n, s) for n, s in SCRIPTS.items()]
        references = [record_bits(fresh(regime)) for regime in regimes]
        calls = count_evaluations(monkeypatch)
        memoised = [
            record_bits(assessment(regime).run(np.random.default_rng(7)))
            for regime in regimes
        ]
        assert memoised == references
        distinct = {row[1] for history in references for row in history}
        assert (2, 0, 0, 0) in distinct and (0, 0, 0, 8) in distinct
        # One evaluation per distinct vector of the pass: 16 checkpoints.
        assert calls[0] == len(distinct) == 10

    def test_a_rerun_of_a_stream_evaluates_every_checkpoint(
        self, monkeypatch
    ):
        calls = count_evaluations(monkeypatch)
        first = assessment(PerfectDetection()).run(np.random.default_rng(3))
        evaluated = calls[0]
        second = assessment(PerfectDetection()).run(np.random.default_rng(3))
        assert evaluated == calls[0] - evaluated == 4
        assert record_bits(first) == record_bits(second)

    def test_a_rerun_after_a_patch_sees_the_patch(self, monkeypatch):
        regimes = (PerfectDetection(), OmissionDetection(0.5))
        plain = [
            assessment(r).run(np.random.default_rng(3)) for r in regimes
        ]
        halve_confidences(monkeypatch)
        patched = [
            assessment(r).run(np.random.default_rng(3)) for r in regimes
        ]
        for before, after in zip(plain, patched):
            for old, new in zip(before.records, after.records):
                assert new.confidence_b(0.1) == old.confidence_b(0.1) * 0.5

    def test_a_patch_mid_pass_is_seen_by_the_next_regime(self, monkeypatch):
        omission = assessment(OmissionDetection(0.5)).run(
            np.random.default_rng(3)
        )
        halve_confidences(monkeypatch)
        perfect = assessment(PerfectDetection()).run(np.random.default_rng(3))
        assert omission.records[0].counts == perfect.records[0].counts
        for old, new in zip(omission.records, perfect.records):
            if old.counts == new.counts:
                assert new.confidence_b(0.1) == old.confidence_b(0.1) * 0.5

    def test_records_sharing_a_summary_are_independent(self):
        perfect = assessment(PerfectDetection()).run(np.random.default_rng(3))
        original = perfect.records[0].confidence_b(0.1)
        perfect.records[0].confidence_b_at[0.1] = -1.0
        omission = assessment(OmissionDetection(0.5)).run(
            np.random.default_rng(3)
        )
        assert omission.records[0].counts == perfect.records[0].counts
        assert omission.records[0].confidence_b(0.1) == original
        assert (
            omission.records[0].confidence_b_at
            is not perfect.records[0].confidence_b_at
        )

    def test_a_supplied_assessor_evaluates_every_checkpoint(
        self, monkeypatch
    ):
        shared = WhiteBoxAssessor(PRIOR, GRID)
        calls = count_evaluations(monkeypatch)
        for regime in (PerfectDetection(), PerfectDetection()):
            assessment(regime).run(np.random.default_rng(3), assessor=shared)
        assert calls[0] == 8


class TestReusedAssessor:
    def test_at_most_one_assessor_is_alive(self, monkeypatch):
        # Whatever assessor an earlier test left behind counts too.
        built = []
        if runner._reused_assessor is not None:
            built.append(weakref.ref(runner._reused_assessor))
        alive_at_init = []
        original = WhiteBoxAssessor.__init__

        def init(self, *args, **kwargs):
            alive_at_init.append(sum(ref() is not None for ref in built))
            built.append(weakref.ref(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(WhiteBoxAssessor, "__init__", init)
        own = GridSpec(44, 44, 12)
        for prior, grid in (
            (PRIOR, own), (PRIOR, own), (SWAPPED, own), (SWAPPED, GRID),
            (PRIOR, own),
        ):
            assessment(PerfectDetection(), prior, grid).run(
                np.random.default_rng(3)
            )
        # The second run reused the first's assessor; every other run
        # built one only after the previous one was gone.
        assert alive_at_init == [0, 0, 0, 0]

    def test_reuse_is_bit_identical_across_priors_and_grids(self):
        # One demand stream and a new regime each run, so only the prior
        # and the grid tell these runs' checkpoints apart.
        runs = [
            (PRIOR, GRID), (SWAPPED, GRID), (PRIOR, GridSpec(36, 36, 12)),
            (PRIOR, GRID),
        ]
        regimes = [
            ScriptedDetection(name, script) for name, script in SCRIPTS.items()
        ]
        for (prior, grid), regime in zip(runs, regimes):
            history = assessment(regime, prior, grid).run(
                np.random.default_rng(3)
            )
            assert record_bits(history) == record_bits(
                fresh(regime, prior, grid, seed=3)
            )


def run_grid(name, jobs, trace_dir=None):
    """Histories of *name*'s ``--fast`` grid (seed 1) and its traces."""
    options = ExperimentOptions(
        seed=1, fast=True, trace_dir=None if trace_dir is None else str(trace_dir)
    )
    histories = run_cells(build_grid(get_spec(name), options), jobs=jobs)
    traces = {}
    if trace_dir is not None:
        traces = {p.name: p.read_bytes() for p in sorted(trace_dir.iterdir())}
    return [record_bits(h) for h in histories], traces


@pytest.mark.parametrize("name", ["table2", "fig7", "fig8", "robustness"])
def test_grids_match_a_fresh_assessor_per_cell(name, tmp_path, monkeypatch):
    # Two CPUs as far as the runtime can tell, so jobs=2 pools the cells.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    run = SequentialAssessment.run

    def with_fresh_assessor(self, rng, assessor=None, tracer=None):
        return run(
            self, rng, assessor=WhiteBoxAssessor(self.prior, self.grid),
            tracer=tracer,
        )

    with monkeypatch.context() as patch:
        patch.setattr(SequentialAssessment, "run", with_fresh_assessor)
        reference, reference_traces = run_grid(name, 1, tmp_path / "fresh")
    assert reference_traces

    calls = count_evaluations(monkeypatch)
    histories, _ = run_grid(name, 1)
    assert histories == reference
    # The memo answered some checkpoints, so the comparison is not moot.
    assert 0 < calls[0] < sum(len(history) for history in reference)
    for jobs in (1, 2):
        histories, traces = run_grid(name, jobs, tmp_path / f"jobs{jobs}")
        assert histories == reference
        assert traces == reference_traces
