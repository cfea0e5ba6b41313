"""The streaming diff's peak memory is O(trace line), not O(file).

The acceptance bound for the first-divergence scan: diffing two
multi-megabyte traces must allocate on the order of one event plus the
bounded context ring — never the whole file.  Measured with
``tracemalloc`` against files ~50k events long.
"""

import tracemalloc

from repro.obs.diff import diff_traces
from repro.obs.trace import JsonlTracer, read_trace

EVENTS = 50_000

#: Generous allocation ceiling for the whole comparison.  The input
#: files are several megabytes each; a list-materialising diff would
#: blow far past this, a streaming one stays well under.
PEAK_BYTES = 2_000_000


def write_trace(path, events, mutate_at=None):
    with JsonlTracer(path, cell="big") as tracer:
        for i in range(events):
            t = float(i)
            if mutate_at is not None and i == mutate_at:
                t += 0.5
            tracer.emit("dispatch", t=t, eid=i % 991, label=f"d{i % 61}")


def measured_diff(source_a, source_b):
    tracemalloc.start()
    try:
        diff = diff_traces(read_trace(source_a), read_trace(source_b))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return diff, peak


class TestBoundedMemory:
    def test_identical_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, EVENTS)
        write_trace(b, EVENTS)
        assert a.stat().st_size > PEAK_BYTES  # the bound is meaningful
        diff, peak = measured_diff(a, b)
        assert diff.identical
        assert diff.events_a == EVENTS
        assert peak < PEAK_BYTES, (
            f"diff peaked at {peak} bytes for a "
            f"{a.stat().st_size}-byte trace"
        )

    def test_divergent_files_drain_with_bounded_memory(self, tmp_path):
        # The exact-count drain after the divergence must stream too.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, EVENTS)
        write_trace(b, EVENTS, mutate_at=100)
        diff, peak = measured_diff(a, b)
        assert diff.divergence_index == 100
        assert diff.events_a == diff.events_b == EVENTS
        assert peak < PEAK_BYTES
