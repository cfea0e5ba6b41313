"""Integration tests: observability threaded through the stack.

Covers the kernel (schedule/dispatch/cancel/compact events), the
middleware demand spans, the Bayesian runner checkpoints, the result
cache and process pool metrics, and the headline contract: the merged
Table-5 trace is bit-identical for any ``jobs`` value.
"""

import numpy as np

from repro.bayes.beta import TruncatedBeta
from repro.bayes.demand_process import TwoReleaseGroundTruth
from repro.bayes.detection import PerfectDetection
from repro.bayes.priors import GridSpec, WhiteBoxPrior
from repro.bayes.runner import SequentialAssessment
from repro.bayes.whitebox import WhiteBoxAssessor
from repro.core.middleware import UpgradeMiddleware
from repro.core.modes import ModeConfig
from repro.experiments import paper_params as P
from repro.experiments.event_sim import (
    release_pair_cells,
    run_release_pair_simulation,
)
from repro.obs.diff import diff_traces
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemoryTracer, read_trace
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import CellSpec, run_cells
from repro.services.endpoint import ServiceEndpoint
from repro.services.message import RequestMessage
from repro.services.wsdl import default_wsdl
from repro.simulation.correlation import OutcomeDistribution
from repro.simulation.distributions import Deterministic
from repro.simulation.engine import Simulator
from repro.simulation.release_model import ReleaseBehaviour
from repro.simulation.timing import SystemTimingPolicy


class TestKernelTracing:
    def test_schedule_dispatch_cancel_events(self):
        tracer = MemoryTracer()
        sim = Simulator(tracer=tracer)
        kept = sim.schedule(1.0, lambda: None, label="keep")
        doomed = sim.schedule(2.0, lambda: None, label="drop")
        doomed.cancel()
        sim.run()
        assert kept.dispatched
        schedules = tracer.of_kind("schedule")
        assert [e["label"] for e in schedules] == ["keep", "drop"]
        assert [e["at"] for e in schedules] == [1.0, 2.0]
        cancels = tracer.of_kind("cancel")
        assert len(cancels) == 1 and cancels[0]["label"] == "drop"
        dispatches = tracer.of_kind("dispatch")
        assert len(dispatches) == 1 and dispatches[0]["t"] == 1.0

    def test_compact_event_and_counters(self):
        tracer = MemoryTracer()
        sim = Simulator(tracer=tracer)
        events = [
            sim.schedule(float(i + 1), lambda: None)
            for i in range(Simulator.COMPACT_MIN_HEAP + 8)
        ]
        for doomed in events[: Simulator.COMPACT_MIN_HEAP // 2 + 5]:
            doomed.cancel()
        assert sim.compactions >= 1
        compacts = tracer.of_kind("compact")
        assert len(compacts) == sim.compactions
        assert compacts[0]["before"] > compacts[0]["after"]
        assert sim.peak_heap_size >= Simulator.COMPACT_MIN_HEAP + 8

    def test_disabled_tracer_normalised_to_none(self):
        from repro.obs.trace import NULL_TRACER

        sim = Simulator(tracer=NULL_TRACER)
        assert sim.tracer is None
        sim = Simulator()
        assert sim.tracer is None

    def test_events_carry_simulated_time_only(self):
        tracer = MemoryTracer()
        sim = Simulator(tracer=tracer)
        sim.schedule(1.0, lambda: None)
        sim.run()
        for event in tracer.events:
            # All timestamps are tiny simulated values, not epoch wall
            # clock (~1.7e9) — the determinism contract.
            for key in ("t", "at"):
                if key in event:
                    assert event[key] < 1e6


def _middleware(simulator, mode=None, latency=0.1, releases=2):
    endpoints = [
        ServiceEndpoint(
            default_wsdl("WS", f"n{i}", release=f"1.{i}"),
            ReleaseBehaviour(
                f"WS 1.{i}",
                OutcomeDistribution(1.0, 0.0, 0.0),
                Deterministic(latency),
            ),
            np.random.default_rng(10 + i),
        )
        for i in range(releases)
    ]
    return UpgradeMiddleware(
        endpoints=endpoints,
        timing=SystemTimingPolicy(timeout=1.0, adjudication_delay=0.05),
        rng=np.random.default_rng(0),
        mode=mode or ModeConfig.max_reliability(),
    )


class TestMiddlewareSpans:
    def test_full_demand_span(self):
        tracer = MemoryTracer()
        sim = Simulator(tracer=tracer)
        middleware = _middleware(sim)
        got = []
        middleware.submit(sim, RequestMessage("operation1", arguments=(0,)),
                          got.append, reference_answer=0)
        sim.run()
        assert len(got) == 1
        assert len(tracer.of_kind("demand")) == 1
        assert len(tracer.of_kind("invoke")) == 2
        collects = tracer.of_kind("collect")
        assert len(collects) == 2 and all(c["valid"] for c in collects)
        adjudicate = tracer.of_kind("adjudicate")
        assert len(adjudicate) == 1
        assert adjudicate[0]["verdict"] == "result"
        deliver = tracer.of_kind("deliver")
        assert len(deliver) == 1 and deliver[0]["fault"] is False

    def test_timeout_span(self):
        tracer = MemoryTracer()
        sim = Simulator(tracer=tracer)
        middleware = _middleware(sim, latency=5.0)  # beyond the 1.0 TimeOut
        got = []
        middleware.submit(sim, RequestMessage("operation1"), got.append)
        sim.run()
        timeouts = tracer.of_kind("timeout")
        assert len(timeouts) == 1 and timeouts[0]["collected"] == 0
        deliver = tracer.of_kind("deliver")
        assert len(deliver) == 1 and deliver[0]["fault"] is True

    def test_demand_ids_are_per_middleware(self):
        # Trace labels must not leak process-global counters (message
        # ids differ between forked workers; demand ids do not).
        tracer = MemoryTracer()
        sim = Simulator(tracer=tracer)
        middleware = _middleware(sim)
        for i in range(3):
            middleware.submit(
                sim, RequestMessage("operation1", arguments=(i,)),
                lambda response: None,
            )
            sim.run()
        demands = [e["demand"] for e in tracer.of_kind("demand")]
        assert demands == [1, 2, 3]


class TestGridTraceDeterminism:
    def test_jobs_1_and_2_traces_identical(self, tmp_path):
        dirs = {}
        for jobs in (1, 2):
            trace_dir = tmp_path / f"jobs{jobs}"
            trace_dir.mkdir()
            cells = release_pair_cells(
                "table5", "correlated", seed=3, requests=60, runs=(1,),
                timeouts=(1.5, 2.0), jobs=jobs, trace_dir=str(trace_dir),
            )
            run_cells(cells, jobs=jobs)
            dirs[jobs] = trace_dir
        for name in sorted(p.name for p in dirs[1].iterdir()):
            a = read_trace(dirs[1] / name)
            b = read_trace(dirs[2] / name)
            diff = diff_traces(a, b)
            assert diff.identical, f"{name}: {diff}"
            assert a, f"{name}: empty trace"

    def test_traced_cells_bypass_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        cells = release_pair_cells(
            "table5", "correlated", seed=3, requests=40, runs=(1,),
            timeouts=(1.5,), trace_dir=str(trace_dir),
        )
        run_cells(cells, cache=cache)
        assert cache.entry_count() == 0
        # Second run must re-simulate and rewrite a non-empty trace.
        run_cells(cells, cache=cache)
        (part,) = sorted(trace_dir.iterdir())
        assert read_trace(part)


def _double(x):
    return 2 * x


class TestRuntimeMetrics:
    def test_cache_counters(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        key = {"cell": 1}
        cache.get("exp", key)
        cache.put("exp", key, 42)
        cache.get("exp", key)
        snapshot = registry.as_dict()["counters"]
        assert snapshot["cache.miss"] == 1
        assert snapshot["cache.put"] == 1
        assert snapshot["cache.hit"] == 1

    def test_cache_corrupt_counter(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        key = {"cell": 1}
        cache.put("exp", key, 42)
        path = cache._path("exp", key)
        path.write_bytes(b"torn write")
        hit, _ = cache.get("exp", key)
        assert not hit
        counters = registry.as_dict()["counters"]
        assert counters["cache.corrupt"] == 1
        assert counters["cache.miss"] == 1

    def test_pool_metrics_inline_and_parallel(self):
        for jobs in (1, 2):
            registry = MetricsRegistry()
            cells = [
                CellSpec(experiment="t", fn=_double, kwargs={"x": i})
                for i in range(4)
            ]
            results = run_cells(cells, jobs=jobs, metrics=registry)
            assert results == [0, 2, 4, 6]
            snapshot = registry.as_dict()
            assert snapshot["counters"]["pool.cells_executed"] == 4
            assert snapshot["histograms"]["pool.cell_seconds"]["count"] == 4
            assert 0.0 < snapshot["gauges"]["pool.utilization"] <= 1.0 + 1e-9

    def test_results_identical_with_and_without_metrics(self):
        cells = [
            CellSpec(experiment="t", fn=_double, kwargs={"x": i})
            for i in range(3)
        ]
        assert run_cells(cells, jobs=2) == run_cells(
            cells, jobs=2, metrics=MetricsRegistry()
        )

    def test_kernel_metrics_from_cell(self):
        registry = MetricsRegistry()
        run_release_pair_simulation(
            P.correlated_model(1), timeout=1.5, requests=50, seed=3,
            metrics=registry,
        )
        counters = registry.as_dict()["counters"]
        assert counters["kernel.dispatched"] > 0
        heap = registry.as_dict()["histograms"]["kernel.peak_heap"]
        assert heap["count"] == 1 and heap["max"] >= 1


class TestBayesCheckpointTracing:
    def test_checkpoint_events(self):
        tracer = MemoryTracer()
        assessment = SequentialAssessment(
            ground_truth=TwoReleaseGroundTruth(1e-2, 1e-2, 5e-3),
            detection=PerfectDetection(),
            prior=WhiteBoxPrior(
                TruncatedBeta(2, 8, upper=0.2),
                TruncatedBeta(2, 8, upper=0.2),
            ),
            total_demands=300,
            checkpoint_every=100,
            grid=GridSpec(32, 32, 16),
        )
        history = assessment.run(
            np.random.default_rng(7), tracer=tracer
        )
        checkpoints = tracer.of_kind("checkpoint")
        assert [e["demands"] for e in checkpoints] == [100, 200, 300]
        assert len(history.records) == 3
        for event, record in zip(checkpoints, history.records):
            assert event["percentile_b_99"] == record.percentile_b_99
            assert event["both_fail"] == record.counts.both_fail

    def test_tracer_does_not_perturb_results(self, monkeypatch):
        evaluations = []
        original = WhiteBoxAssessor.checkpoint_summary

        def counted(self, *args, **kwargs):
            evaluations.append(self.counts)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(WhiteBoxAssessor, "checkpoint_summary", counted)
        assessment = SequentialAssessment(
            ground_truth=TwoReleaseGroundTruth(1e-2, 1e-2, 5e-3),
            detection=PerfectDetection(),
            prior=WhiteBoxPrior(
                TruncatedBeta(2, 8, upper=0.2),
                TruncatedBeta(2, 8, upper=0.2),
            ),
            total_demands=200,
            checkpoint_every=100,
            grid=GridSpec(32, 32, 16),
        )
        plain = assessment.run(np.random.default_rng(7))
        traced = assessment.run(
            np.random.default_rng(7), tracer=MemoryTracer()
        )
        assert [r.percentile_b_99 for r in plain.records] == [
            r.percentile_b_99 for r in traced.records
        ]
        # A re-run of the stream evaluates again, not from the memo.
        counts = [r.counts for r in plain.records]
        assert evaluations == counts + counts
