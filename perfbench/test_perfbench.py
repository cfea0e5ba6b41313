"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks, metrics, tracing, worker, workloads  # noqa: E402
from perfbench.metrics import WORKLOADS  # noqa: E402


@pytest.fixture
def tmp_path(request):
    """A scratch directory inside the checkout, which is all the benchmark
    may write to."""
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"test-{request.node.name[:40]}-", dir=base)
    yield Path(path)
    shutil.rmtree(path, ignore_errors=True)


def run_benchmark(workload, trace, cwd=ROOT, seed=1):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_end_to_end_with_every_metric_and_unit(workload):
    result = last_json(run_benchmark(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {name: unit for name, unit, _better in metrics.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["campaign", "assessment", "service"])
def test_traced_run_reports_every_per_layer_metric(workload):
    result = last_json(run_benchmark(workload, trace=1))
    assert result["failed"] == 0
    declared = {name: unit for name, unit, _better in metrics.PER_LAYER}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert result["metrics"]["pipeline.grids"]["value"] >= 1
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_benchmark_json_declares_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == (
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        metrics.PER_LAYER
    )


def test_missing_program_source_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("sweep", trace=0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_workload_seed_sets_the_inputs():
    for workload in WORKLOADS:
        first = [workloads.grid_at(workload, 1, i) for i in range(8)]
        assert first == [workloads.grid_at(workload, 1, i) for i in range(8)]
        other = [workloads.grid_at(workload, 2, i) for i in range(8)]
        assert {g.seed for g in first}.isdisjoint({g.seed for g in other})
    assert workloads.base_seed("campaign", 1) != workloads.base_seed("replay", 1)


# -- deliberately wrong outputs are counted as failed operations -------------


def timed_config(tmp_path, workload, **extra):
    config = {
        "workload": workload, "seed": 1, "start": 0, "budget": 0.0,
        "tiny": True, "trace": False, "samples": 4, "canary": False,
        "scratch": str(tmp_path), "trace_out": str(tmp_path / "trace.jsonl"),
    }
    config.update(extra)
    workdir = tmp_path / "proc"
    workdir.mkdir(parents=True)
    return config, str(workdir)


def test_a_wrong_resolver_result_fails_the_event_kernel_check(tmp_path, monkeypatch):
    import repro.runtime.columnar as columnar

    original = columnar.resolve_cell_batch

    def off_by_one_second(*args, **kwargs):
        rows = original(*args, **kwargs)
        for row in rows:
            row.system._time_sum += 1.0
        return rows

    monkeypatch.setattr(columnar, "resolve_cell_batch", off_by_one_second)
    result = worker.role_timed(*timed_config(tmp_path, "campaign"))
    assert result["attempted"] == 1 and result["failed"] == 1
    assert "differs from the event kernel" in result["failures"][0]


def test_a_wrong_posterior_fails_the_dense_check(tmp_path, monkeypatch):
    from repro.bayes.whitebox import WhiteBoxAssessor

    original = WhiteBoxAssessor.checkpoint_summary

    def shifted(self, *args, **kwargs):
        pa, pb, confidences = original(self, *args, **kwargs)
        return pa, pb, [c * 0.5 for c in confidences]

    monkeypatch.setattr(WhiteBoxAssessor, "checkpoint_summary", shifted)
    result = worker.role_timed(*timed_config(tmp_path, "assessment"))
    assert result["failed"] == 1
    assert any("P(pB <=" in problem for problem in result["failures"])


def test_a_failed_cross_check_and_an_exception_each_count_once(tmp_path, monkeypatch):
    import repro.experiments.service_load as service_load

    monkeypatch.setattr(service_load, "cross_check", lambda *args: ["injected"])
    result = worker.role_timed(*timed_config(tmp_path / "a", "service"))
    assert (result["attempted"], result["failed"]) == (1, 1)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(service_load, "run_load", broken)
    result = worker.role_timed(*timed_config(tmp_path / "b", "service"))
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "RuntimeError: injected" in result["failures"][0]


def test_a_changed_table2_fails_the_recorded_reference():
    grid = workloads.Grid("table2", worker.CANARY_SEEDS[0], 1_000, fast=True)
    run = workloads.run_grid(grid, keep=True)
    references = checks.load_references()
    assert checks.check_reference(run, references) == []
    run.text = run.text.replace("scenario-1", "scenario-one", 1)
    assert checks.check_reference(run, references)


# -- tracing ------------------------------------------------------------------


def test_traced_run_restores_every_wrapped_entry_point(tmp_path):
    originals = [
        (owner, attr, vars(owner)[attr]) for owner, attr, _ in tracing.bindings()
    ]
    config, workdir = timed_config(tmp_path, "sweep", trace=True, samples=0)
    result = worker.role_timed(config, workdir)
    assert result["failed"] == 0 and result["trace"]["spans"] > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} left wrapped"


def test_unbind_restores_after_a_failing_grid(tmp_path, monkeypatch):
    import repro.experiments.service_load as service_load

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(service_load, "run_load", broken)
    originals = [(o, a, vars(o)[a]) for o, a, _ in tracing.bindings()]
    runner = worker.TracedRunner({"scratch": str(tmp_path)}, None)
    run = runner.run(workloads.grid_at("service", 1, 0, tiny=True))
    assert run.error == "RuntimeError: injected"
    assert all(vars(o)[a] is original for o, a, original in originals)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 4.0},
        {"id": "b", "parent": "p", "start": 3.0, "end": 6.0},
        {"id": "c", "parent": "p", "start": 8.0, "end": 12.0},
    ]
    own = tracing.self_times(spans)
    assert own["p"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["a"] == pytest.approx(3.0)
