"""Record the benchmark's reference data and baseline.

From the root of a checkout::

    python3 perfbench/record.py reference
        renders the canary Table 2 grids the assessment workload checks
        against into perfbench/reference/table2.json;
    python3 perfbench/record.py baseline --runs 10
        runs every workload --runs times with --trace 0 (seeds 1..runs)
        and once with --trace 1, prints each end-to-end metric's median,
        quartiles and quartile spread, and writes perfbench/baseline.json.

Recording the reference anew only makes sense at a commit whose Table 2
output is known to be right: the check exists to catch later changes.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def record_reference() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.checks import REFERENCE_PATH, reference_key
    from perfbench.worker import CANARY_SEEDS
    from perfbench.workloads import Grid, grid_at, run_grid

    references = {}
    for tiny in (False, True):
        template = grid_at("assessment", 0, 0, tiny)
        for seed in CANARY_SEEDS:
            run = run_grid(
                Grid("table2", seed, template.requests, template.fast, template.jobs),
                keep=True,
            )
            if run.error:
                raise SystemExit(f"canary seed {seed}: {run.error}")
            references[reference_key(run)] = run.text
            print(reference_key(run), f"{run.latency:.2f}s")
    os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def machine() -> Dict[str, Any]:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def record_baseline(runs: int, seconds: float, workloads: List[str]) -> None:
    path = os.path.join(HERE, "baseline.json")
    baseline: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            baseline = json.load(handle)
    baseline["machine"] = machine()
    baseline["run_seconds"] = seconds
    end_to_end = baseline.setdefault("end_to_end", {})
    traced = baseline.setdefault("per_layer", {})
    for workload in workloads:
        outputs = [run_once(workload, seed, seconds, 0) for seed in range(1, runs + 1)]
        failed = [o["failed"] for o in outputs]
        rows = {
            name: dict(summary([o["metrics"][name]["value"] for o in outputs]),
                       unit=outputs[0]["metrics"][name]["unit"])
            for name in outputs[0]["metrics"]
        }
        rows["failed_ratio"] = {
            "n": sum(o["attempted"] for o in outputs),
            "failed": sum(failed),
            "value": sum(failed) / sum(o["attempted"] for o in outputs),
        }
        end_to_end[workload] = rows
        for name, row in rows.items():
            if "median" in row:
                print(f"{workload:11s} {name:14s} median {row['median']:.6g} "
                      f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                      f"spread {row['spread']:.4f}")
        print(f"{workload:11s} failed {sum(failed)} of {rows['failed_ratio']['n']}")
        trace = run_once(workload, 1, seconds, 1)
        traced[workload] = {
            name: metric["value"] for name, metric in trace["metrics"].items()
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    base = sub.add_parser("baseline")
    base.add_argument("--runs", type=int, default=10)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    base.add_argument("--seconds", type=float, default=run_seconds)
    base.add_argument("--workload", action="append")
    args = parser.parse_args()
    if args.what == "reference":
        record_reference()
    else:
        from perfbench.metrics import WORKLOADS

        record_baseline(args.runs, args.seconds, args.workload or list(WORKLOADS))


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    main()
