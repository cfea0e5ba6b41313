"""Merged multi-cell traces are byte-identical for any --jobs value.

The merged-trace determinism property, extended through the event
store: trace a grid at ``jobs`` 1, 2 and 4, merge the per-cell parts in
sorted order, and feed the merge through a :class:`RunStore` — the
bytes must be identical all the way, because every stage (tracer,
merge, segment encoding, export) is canonical.  A Hypothesis property
pins the store round-trip for arbitrary synthetic event sequences.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import JsonlTracer, merge_traces, read_trace
from repro.runtime.parallel import CellSpec, run_cells
from repro.store.log import EventStream, RunStore


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
    def test_jobs_1_2_4_identical_through_the_store(
        self, tmp_path, monkeypatch
    ):
        # Two CPUs as far as run_cells can tell, so jobs > 1 uses the
        # process pool even on a single-CPU host and the property really
        # exercises worker scheduling.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        merged_bytes = {}
        exported_bytes = {}
        for jobs in (1, 2, 4):
            base = tmp_path / f"jobs{jobs}"
            parts = run_traced_grid(str(base / "parts"), jobs)
            assert len(parts) == 6
            merged = base / "merged.jsonl"
            merge_traces(parts, merged)
            merged_bytes[jobs] = merged.read_bytes()

            # Through the event store: import the merge as one stream
            # (multi-segment), export it back to JSONL.
            store = RunStore(base / "store", segment_events=8)
            stream = store.import_trace(
                merged, "traces", {"file": "merged.jsonl"}
            )
            assert len(stream.segments()) > 1
            exported = base / "exported.jsonl"
            stream.export(exported)
            exported_bytes[jobs] = exported.read_bytes()

        # The property: whatever the worker scheduling, the merged file
        # and its store round-trip are byte-identical across --jobs.
        # (Export is not byte-equal to the merge itself: the stream
        # assigns one global seq where per-cell parts each restart at
        # 0 — a deterministic renumbering, identical for every jobs.)
        assert merged_bytes[1] == merged_bytes[2] == merged_bytes[4]
        assert exported_bytes[1] == exported_bytes[2] == exported_bytes[4]


#: Synthetic logical events: a kind plus a few primitive fields.
events_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["schedule", "dispatch", "demand"]),
            "t": st.floats(
                min_value=0.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            "label": st.text(
                alphabet="abcdefgh:0123456789", max_size=12
            ),
        }
    ),
    max_size=40,
)


class TestStoreRoundTripProperty:
    @given(events=events_strategy)
    @settings(max_examples=25, deadline=None)
    def test_interleaved_append_preserves_events(self, tmp_path_factory, events):
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        stream = EventStream(tmp_path / "s", segment_events=7)
        for event in events:
            stream.append(event["kind"], {
                "t": event["t"], "label": event["label"],
            })
        stream.commit(complete=True)
        stream.close()

        back = list(EventStream(tmp_path / "s").read())
        assert len(back) == len(events)
        for seq, (original, decoded) in enumerate(zip(events, back)):
            assert decoded == {
                "seq": seq,
                "kind": original["kind"],
                "t": original["t"],
                "label": original["label"],
            }
