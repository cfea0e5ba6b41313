"""Golden-fixture test: PR 3-era v1 traces read back losslessly.

``tests/fixtures/trace_v1_table5_run1_t1.5.jsonl`` was written by the
pre-envelope tracer (bare JSON objects, no ``"v"`` marker) for one
traced Table-5 cell.  The upcaster chain must yield exactly the logical
events the v1 file stores — and regenerating the same cell today must
diff as *identical* against the v1 file, the same verdict the diff tool
gave before the refactor.
"""

import json
from pathlib import Path

from repro.experiments.event_sim import run_joint_model_cell
from repro.obs.diff import diff_traces, main as diff_main
from repro.obs.trace import read_trace

FIXTURE = (
    Path(__file__).parent.parent
    / "fixtures"
    / "trace_v1_table5_run1_t1.5.jsonl"
)

#: The exact cell the fixture traced (see the fixture's first events).
CELL_KWARGS = dict(
    joint="correlated",
    run=1,
    timeout=1.5,
    requests=50,
    seed=20040628,
    profile=None,
    trace_cell="table5/run1/t1.5",
)


def test_fixture_is_v1():
    # Guard the fixture itself: every line must be a bare v1 object.
    for line in FIXTURE.read_text().splitlines():
        assert '"v":' not in line


def test_upcast_is_lossless():
    raw = [
        json.loads(line) for line in FIXTURE.read_text().splitlines()
    ]
    logical = list(read_trace(FIXTURE))
    assert logical == raw
    assert len(logical) == 840


def test_regenerated_trace_diffs_identical(tmp_path):
    # The same cell, traced today (v2 envelopes on disk), must compare
    # as identical to the v1 fixture — the pre-refactor diff verdict.
    fresh = tmp_path / "fresh.jsonl"
    run_joint_model_cell(trace_path=str(fresh), **CELL_KWARGS)
    diff = diff_traces(read_trace(FIXTURE), read_trace(fresh))
    assert diff.identical, (
        f"regenerated trace diverges at event "
        f"#{diff.divergence_index}: {diff.event_a} != {diff.event_b}"
    )
    assert diff.events_a == 840

    # And the CLI agrees (exit 0 == identical).
    assert diff_main([str(FIXTURE), str(fresh), "--quiet"]) == 0
