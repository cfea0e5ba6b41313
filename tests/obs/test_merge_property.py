"""Merged multi-cell traces are byte-identical for any --jobs value.

The merged-trace determinism property: trace a grid at ``jobs`` 1, 2
and 4 and merge the per-cell parts in sorted order — the merged files
must be byte-identical, because every stage (tracer, merge) is
canonical.
"""

import os

from repro.obs.trace import JsonlTracer, merge_traces, read_trace
from repro.runtime.parallel import CellSpec, run_cells


def traced_cell(cell_name, trace_path, events, seed):
    """Module-level (picklable) cell emitting a deterministic trace."""
    with JsonlTracer(trace_path, cell=cell_name) as tracer:
        for i in range(events):
            tracer.emit(
                "dispatch", t=float(i), eid=(seed * 1000 + i) % 97
            )
    return cell_name


def run_traced_grid(trace_dir, jobs):
    os.makedirs(trace_dir, exist_ok=True)
    cells = [
        CellSpec(
            experiment="mergeprop",
            fn=traced_cell,
            kwargs=dict(
                cell_name=f"cell{i}",
                trace_path=os.path.join(trace_dir, f"cell{i:02d}.jsonl"),
                events=5 + i,
                seed=i,
            ),
            key=None,  # traced cells are never cached/stored
        )
        for i in range(6)
    ]
    run_cells(cells, jobs=jobs)
    return sorted(
        os.path.join(trace_dir, name)
        for name in os.listdir(trace_dir)
        if name.endswith(".jsonl")
    )


class TestMergedTraceByteIdentity:
    def test_jobs_1_2_4_identical(self, tmp_path, monkeypatch):
        # Two CPUs as far as run_cells can tell, so jobs > 1 uses the
        # process pool even on a single-CPU host and the property really
        # exercises worker scheduling.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        merged_bytes = {}
        for jobs in (1, 2, 4):
            base = tmp_path / f"jobs{jobs}"
            parts = run_traced_grid(str(base / "parts"), jobs)
            assert len(parts) == 6
            merged = base / "merged.jsonl"
            merge_traces(parts, merged)
            merged_bytes[jobs] = merged.read_bytes()
            assert len(list(read_trace(merged))) == sum(
                5 + i for i in range(6)
            )

        # The property: whatever the worker scheduling, the merged file
        # is byte-identical across --jobs.
        assert merged_bytes[1] == merged_bytes[2] == merged_bytes[4]
