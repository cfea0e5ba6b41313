"""The sequential runner's reused assessor and the assessment plan.

:meth:`SequentialAssessment.run` evaluates every checkpoint of its own
stream on one white-box assessor kept per process.  An assessment grid
runs its cells, traced or not, as one plan instead
(:func:`~repro.bayes.evaluation_plan.assess_planned`): every cell
draws its counts, each distinct count vector is evaluated exactly once
in shares over the pool, and the histories are assembled from the
summaries, a traced cell's checkpoint events written as it is
assembled.
These tests hold both paths IEEE-bit identical to a fresh assessor per
cell, traces byte-equal, at most one assessor alive per process, and
every run of a grid a new computation.
"""

import dataclasses
import multiprocessing
import os
import signal
import sys
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
from repro.bayes.evaluation_plan import assess_planned
from repro.bayes.runner import SequentialAssessment
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.common.errors import WorkerCrashError
from repro.experiments import cli
from repro.experiments.scenarios import scenario_2
from repro.experiments.table2 import PLANNED
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import ExperimentOptions, build_grid, discover, get_spec
from repro.runtime.batch import BatchContext
from repro.runtime.parallel import run_cells
from repro.store.log import RunStore

discover()

needs_notes = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="exception notes need Python 3.11+"
)

#: A grid no other test module uses, so the first run here builds.
GRID = GridSpec(40, 40, 12)

PRIOR = WhiteBoxPrior(
    TruncatedBeta(2, 8, upper=0.2), TruncatedBeta(2, 8, upper=0.2)
)
SWAPPED = WhiteBoxPrior(
    TruncatedBeta(2, 8, upper=0.2), TruncatedBeta(3, 8, upper=0.2)
)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let ``jobs > 1`` reach the pool even on a single-CPU host."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


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
    """Count ``checkpoint_summary`` calls from here on, pool workers'
    included (a shared counter the pool's forked workers inherit)."""
    calls = multiprocessing.get_context("fork").Value("l", 0)
    original = WhiteBoxAssessor.checkpoint_summary

    def counted(self, *args, **kwargs):
        with calls.get_lock():
            calls.value += 1
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


def inline(fn, tasks, serves):
    """A fan-out that runs every task in this process, in order."""
    return [fn(*task) for task in tasks]


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


def scripted_runs(prior=PRIOR, grid=GRID, seed=7):
    return [
        (assessment(ScriptedDetection(name, script), prior, grid),
         np.random.default_rng(seed))
        for name, script in SCRIPTS.items()
    ]


class TestPlan:
    @pytest.mark.parametrize("shares", [1, 2, 3, 16])
    def test_each_distinct_vector_is_evaluated_once(
        self, monkeypatch, shares
    ):
        references = [
            record_bits(fresh(ScriptedDetection(n, s)))
            for n, s in SCRIPTS.items()
        ]
        calls = count_evaluations(monkeypatch)
        planned = assess_planned(scripted_runs(), shares, inline)
        assert [record_bits(history) for history in planned] == references
        distinct = {row[1] for history in references for row in history}
        assert (2, 0, 0, 0) in distinct and (0, 0, 0, 8) in distinct
        # One evaluation per distinct vector: 10 for 16 checkpoints.
        assert calls.value == len(distinct) == 10

    def test_shares_are_contiguous_and_even(self):
        seen = []

        def spy(fn, tasks, serves):
            seen.extend(zip(tasks, serves))
            return inline(fn, tasks, serves)

        runs = scripted_runs() + scripted_runs(SWAPPED)
        assess_planned(runs, 3, spy)
        # One list of 20 evaluations, PRIOR's 10 vectors then SWAPPED's,
        # cut into 6 + 7 + 7: only the middle share spans both priors.
        segments = [
            [(repr(prior), len(vectors)) for prior, _g, _t, vectors in task[0]]
            for task, _serves in seen
        ]
        assert segments == [
            [(repr(PRIOR), 6)],
            [(repr(PRIOR), 4), (repr(SWAPPED), 3)],
            [(repr(SWAPPED), 7)],
        ]
        for prior in (PRIOR, SWAPPED):
            vectors = [
                vector
                for task, _serves in seen
                for segment in task[0]
                if repr(segment[0]) == repr(prior)
                for vector in segment[3]
            ]
            assert len(vectors) == len(set(vectors)) == 10
        # The first share, both-first's four vectors and a-at-5's two
        # new ones, serves the three regimes that reach them; the
        # silent regime reaches none of them.
        assert seen[0][0][0][0][3] == [
            (2, 0, 0, 0), (2, 0, 0, 2), (2, 0, 0, 4), (2, 0, 0, 6),
            (2, 1, 0, 3), (2, 1, 0, 5),
        ]
        assert [served for _task, served in seen] == [
            [0, 1, 2], [3, 4, 5, 6], [4, 5, 6, 7],
        ]

    def test_records_sharing_a_summary_are_independent(self):
        perfect, omission = assess_planned(
            [
                (assessment(PerfectDetection()), np.random.default_rng(3)),
                (assessment(OmissionDetection(0.5)),
                 np.random.default_rng(3)),
            ],
            1,
            inline,
        )
        assert omission.records[0].counts == perfect.records[0].counts
        original = perfect.records[0].confidence_b(0.1)
        perfect.records[0].confidence_b_at[0.1] = -1.0
        assert omission.records[0].confidence_b(0.1) == original
        assert omission.records[0] is not perfect.records[0]
        assert (
            omission.records[0].confidence_b_at
            is not perfect.records[0].confidence_b_at
        )


class TestRun:
    def test_a_rerun_of_a_stream_evaluates_every_checkpoint(
        self, monkeypatch
    ):
        calls = count_evaluations(monkeypatch)
        first = assessment(PerfectDetection()).run(np.random.default_rng(3))
        evaluated = calls.value
        second = assessment(PerfectDetection()).run(np.random.default_rng(3))
        assert evaluated == calls.value - evaluated == 4
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

    def test_a_supplied_assessor_evaluates_every_checkpoint(
        self, monkeypatch
    ):
        shared = WhiteBoxAssessor(PRIOR, GRID)
        calls = count_evaluations(monkeypatch)
        for regime in (PerfectDetection(), PerfectDetection()):
            assessment(regime).run(np.random.default_rng(3), assessor=shared)
        assert calls.value == 8


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
        # A plan over two priors evaluates one prior's vectors in a row,
        # the middle one of three shares spanning both: one construction
        # per prior (the last run's assessor serves neither), each after
        # the previous one was gone.
        del alive_at_init[:]
        assess_planned(
            scripted_runs(SWAPPED, own) + scripted_runs(PRIOR, own), 3, inline
        )
        assert alive_at_init == [0, 0]

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


# -- whole grids through run_cells -------------------------------------------


def grid_cells(name, trace_dir=None):
    options = ExperimentOptions(
        seed=1, fast=True,
        trace_dir=None if trace_dir is None else str(trace_dir),
    )
    return build_grid(get_spec(name), options)


def run_grid(name, jobs, trace_dir=None, **kwargs):
    """Histories of *name*'s ``--fast`` grid (seed 1) and its traces."""
    histories = run_cells(grid_cells(name, trace_dir), jobs=jobs, **kwargs)
    traces = {}
    if trace_dir is not None:
        traces = {p.name: p.read_bytes() for p in sorted(trace_dir.iterdir())}
    return [record_bits(h) for h in histories], traces


def per_cell(cells):
    """The same cells with their BatchSpec stripped: one run per cell."""
    return [dataclasses.replace(cell, batch=None) for cell in cells]


def with_fresh_assessor(monkeypatch):
    """Make every ``run`` build its own assessor: the reference."""
    run = SequentialAssessment.run

    def fresh_run(self, rng, assessor=None, tracer=None):
        return run(
            self, rng, assessor=WhiteBoxAssessor(self.prior, self.grid),
            tracer=tracer,
        )

    monkeypatch.setattr(SequentialAssessment, "run", fresh_run)


def spy_on_tasks(monkeypatch):
    """Record every (tasks, results) pair a BatchContext fans out."""
    seen = []
    original = BatchContext.map

    def spied(self, fn, tasks, serves):
        results = original(self, fn, tasks, serves)
        seen.append((list(tasks), results))
        return results

    monkeypatch.setattr(BatchContext, "map", spied)
    return seen


GRIDS = ["table2", "fig7", "fig8", "robustness"]


@pytest.mark.parametrize("name", GRIDS)
def test_planned_grids_match_a_fresh_assessor_per_cell(
    name, monkeypatch, two_cpus
):
    with monkeypatch.context() as patch:
        with_fresh_assessor(patch)
        reference = [
            record_bits(history)
            for history in run_cells(per_cell(grid_cells(name)))
        ]
    for jobs in (1, 2, 4):
        registry = MetricsRegistry()
        histories, _ = run_grid(name, jobs, metrics=registry)
        assert histories == reference
        counters = registry.as_dict()["counters"]
        assert counters["bayes.planned_cells"] == len(reference)
        assert "pool.cells_executed" not in counters


@pytest.mark.parametrize("name", GRIDS)
def test_every_distinct_vector_is_evaluated_once(
    name, monkeypatch, two_cpus
):
    cells = grid_cells(name)
    histories = run_cells(per_cell(cells))
    distinct = {
        (cell.kwargs["scenario"].name, record.counts.as_tuple())
        for cell, history in zip(cells, histories)
        for record in history.records
    }
    checkpoints = sum(len(history.records) for history in histories)
    calls = count_evaluations(monkeypatch)
    run_cells(cells, jobs=1)
    assert calls.value == len(distinct) < checkpoints

    # Through the pool: the tasks' shares cover the distinct vectors
    # exactly once, each answered by one summary.
    seen = spy_on_tasks(monkeypatch)
    calls.value = 0
    run_cells(cells, jobs=2)
    assert calls.value == len(distinct)
    (tasks, results), = seen
    assert len(tasks) == 2
    shares = [
        [(repr(segment[0]), vector) for segment in task[0]
         for vector in segment[3]]
        for task in tasks
    ]
    everything = [pair for share in shares for pair in share]
    assert len(everything) == len(set(everything)) == len(distinct)
    assert [len(answers) for answers in results] == [
        len(share) for share in shares
    ]


@pytest.mark.parametrize("name", GRIDS)
def test_shares_build_at_most_jobs_plus_priors_minus_one_assessors(
    name, monkeypatch, two_cpus
):
    cells = grid_cells(name)
    priors = len({
        (repr(cell.kwargs["scenario"].prior), cell.kwargs["grid"])
        for cell in cells
    })
    built = multiprocessing.get_context("fork").Value("l", 0)
    init = WhiteBoxAssessor.__init__

    def counted(self, *args, **kwargs):
        with built.get_lock():
            built.value += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(WhiteBoxAssessor, "__init__", counted)
    for jobs in (1, 2, 4):
        # No assessor to inherit: every prior is built at least once.
        monkeypatch.setattr(runner, "_reused_assessor", None)
        built.value = 0
        run_cells(cells, jobs=jobs)
        assert priors <= built.value <= jobs + priors - 1


def test_a_patch_is_seen_at_any_jobs_and_a_rerun_evaluates_again(
    monkeypatch, two_cpus
):
    plain, _ = run_grid("table2", 1)
    calls = count_evaluations(monkeypatch)
    run_grid("table2", 1)
    evaluated = calls.value
    run_grid("table2", 1)
    assert calls.value == 2 * evaluated > 0
    halve_confidences(monkeypatch)
    for jobs in (1, 2):
        patched, _ = run_grid("table2", jobs)
        assert patched != plain
        for old, new in zip(plain, patched):
            for old_row, new_row in zip(old, new):
                assert new_row[:5] == old_row[:5]
                for (t, old_c), (_t, new_c) in zip(old_row[5], new_row[5]):
                    assert float.fromhex(new_c) == float.fromhex(old_c) * 0.5


@pytest.mark.parametrize("name", GRIDS)
def test_traced_grids_take_the_plan(name, tmp_path, monkeypatch, two_cpus):
    fresh = tmp_path / "fresh"
    with monkeypatch.context() as patch:
        with_fresh_assessor(patch)
        reference = [
            record_bits(history)
            for history in run_cells(per_cell(grid_cells(name, fresh)))
        ]
    reference_traces = {p.name: p.read_bytes() for p in sorted(fresh.iterdir())}
    assert reference_traces
    runs = multiprocessing.get_context("fork").Value("l", 0)
    run = SequentialAssessment.run

    def counted(self, *args, **kwargs):
        with runs.get_lock():
            runs.value += 1
        return run(self, *args, **kwargs)

    monkeypatch.setattr(SequentialAssessment, "run", counted)
    cells = grid_cells(name, tmp_path / "unused")
    assert all(cell.batch is PLANNED and cell.key is None for cell in cells)
    untraced, _ = run_grid(name, 1)
    assert untraced == reference
    for jobs in (1, 2):
        registry = MetricsRegistry()
        histories, traces = run_grid(
            name, jobs, tmp_path / f"jobs{jobs}", metrics=registry
        )
        counters = registry.as_dict()["counters"]
        assert histories == reference
        assert traces == reference_traces
        assert counters["bayes.planned_cells"] == len(cells)
        assert "pool.cells_executed" not in counters
    assert runs.value == 0


def test_tracing_leaves_the_evaluation_count_unchanged(
    tmp_path, monkeypatch, capsys
):
    calls = count_evaluations(monkeypatch)
    counts = {}
    for traced in (False, True):
        calls.value = 0
        argv = ["table2", "--fast", "--seed", "1", "--jobs", "1", "--no-cache"]
        if traced:
            argv += ["--trace", str(tmp_path / "trace.jsonl")]
        assert cli.main(argv) == 0
        counts[traced] = calls.value
    capsys.readouterr()
    assert counts == {False: 55, True: 55}
    assert (tmp_path / "trace.jsonl").stat().st_size > 0


# -- faults and the store ----------------------------------------------------


def fail_on_scenario_2(monkeypatch, fault):
    """Patch ``checkpoint_summary`` to run *fault* on scenario 2's prior."""
    original = WhiteBoxAssessor.checkpoint_summary
    target = repr(scenario_2().prior)

    def faulty(self, *args, **kwargs):
        if repr(self.prior) == target:
            fault()
        return original(self, *args, **kwargs)

    monkeypatch.setattr(WhiteBoxAssessor, "checkpoint_summary", faulty)


def named_cells(message):
    return sorted(
        int(part.split(" ", 1)[0])
        for part in message.split("cell ")[1:]
    )


@needs_notes
@pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "pool"])
def test_a_task_exception_names_its_cells_and_commits_nothing(
    tmp_path, monkeypatch, two_cpus, jobs
):
    def fault():
        raise ValueError("injected")

    fail_on_scenario_2(monkeypatch, fault)
    store = RunStore(tmp_path / "store")
    with pytest.raises(ValueError, match="injected") as info:
        run_grid("table2", jobs, store=store)
    (note,) = info.value.__notes__
    assert note.startswith("raised in task ")
    assert "'assessment'" in note and "'scenario': 'scenario-2'" in note
    # The faulting task evaluated scenario 2's first vector, which cell
    # 3 (its first regime) reaches; at jobs 1 one share serves them all.
    named = named_cells(note)
    assert 3 in named and set(named) <= set(range(6))
    assert jobs == 2 or named == list(range(6))
    assert not (tmp_path / "store").exists() or not any(
        (tmp_path / "store").rglob("*.json")
    )


def test_a_killed_worker_names_its_cells_and_commits_nothing(
    tmp_path, monkeypatch, two_cpus
):
    parent = os.getpid()

    def fault():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    fail_on_scenario_2(monkeypatch, fault)
    store = RunStore(tmp_path / "store")
    with pytest.raises(WorkerCrashError) as info:
        run_grid("table2", 2, store=store)
    message = str(info.value)
    assert "task(s) finished" in message
    assert "'scenario': 'scenario-2'" in message
    assert set(named_cells(message.split("finished: ", 1)[1])) & {3, 4, 5}
    assert not (tmp_path / "store").exists() or not any(
        (tmp_path / "store").rglob("*.json")
    )


def test_a_planned_chunk_resumes_from_the_store_without_executing(
    tmp_path, monkeypatch, two_cpus
):
    first, _ = run_grid("table2", 2, store=RunStore(tmp_path / "store"))
    assert len(list((tmp_path / "store" / "assessment").iterdir())) == 1
    calls = count_evaluations(monkeypatch)
    registry = MetricsRegistry()
    again, _ = run_grid(
        "table2", 2, metrics=registry,
        store=RunStore(tmp_path / "store", metrics=registry),
    )
    counters = registry.as_dict()["counters"]
    assert again == first
    assert calls.value == 0
    assert counters["store.batch_resume_skipped_cells"] == len(first)
    assert "bayes.planned_cells" not in counters
    assert "pool.cells_executed" not in counters
