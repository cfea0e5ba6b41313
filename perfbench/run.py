"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

``--workload all`` runs every workload in turn.  Each run starts fresh
worker processes (``perfbench/worker.py``) that import the program from
``src/``, so nothing is installed or built.  The run prints a report of
every metric with its unit and sample count, then, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A failed output check or an exception in a
grid counts as one failed operation; it does not stop the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import metrics  # noqa: E402
from perfbench.metrics import WORKLOADS  # noqa: E402

#: Fresh processes per run.  Each contributes one set-up sample, and the
#: timed window is split evenly between them.
PROCESSES = 3

#: Cells re-resolved on the event kernel per sweep / campaign process.
EVENT_SAMPLES = {"sweep": 1, "campaign": 8}

#: Share of ``--seconds`` the replay fill (untimed set-up) runs for, and
#: the number of fresh processes that then each read every filled grid
#: once.  Many short warm passes spread the replay's few seconds of
#: measurement over the run instead of one burst.
FILL_SHARE = 0.4
WARM_PROCESSES = 6

#: A worker that has not finished by then is killed and the run fails.
PROCESS_TIMEOUT_S = 150.0

#: Other names of some workload metrics, printed beside them.
ALIASES = {
    ("replay", "cells_per_s"): "replay_cells_per_s",
    ("replay", "grid_p50_ms"): "replay_grid_p50_ms",
    ("replay", "grid_p90_ms"): "replay_grid_p90_ms",
    ("assessment", "grid_p50_ms"): "wall_s x 1000: time to a checked Table 2",
}

WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

#: Runs keep their scratch directories.  On a 2-vCPU virtual machine
#: whose ext4 disk is mounted with online discard, deleting the tens of
#: thousands of files a campaign or replay run leaves (about 70 MB) kept
#: the disk busy discarding freed blocks for minutes, and the next runs
#: slowed by up to 2x.  Old run directories are removed, oldest first,
#: only when free space under the checkout drops below this.
FREE_SPACE_FLOOR = 2 * 1024**3


def spawn(config: Dict[str, Any]) -> Dict[str, Any]:
    """Run one worker process; returns its result with ``setup_s`` added."""
    command = [sys.executable, "-m", "perfbench.worker", json.dumps(config)]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, process.kill)
    watchdog.start()
    ready = None
    result = None
    try:
        for line in process.stdout:
            if ready is None and line.startswith("READY"):
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0 or ready is None or result is None:
        raise RuntimeError(f"worker {config['role']} exited with code {code}")
    result["setup_s"] = ready
    return result


def make_room(work_dir: str) -> None:
    """Remove the oldest run directories while free space is short."""
    runs = sorted(
        (entry.stat().st_mtime, entry.path)
        for entry in os.scandir(work_dir) if entry.is_dir()
    )
    for _mtime, path in runs:
        if shutil.disk_usage(work_dir).free >= FREE_SPACE_FLOOR:
            return
        shutil.rmtree(path, ignore_errors=True)


def run_workload(args: argparse.Namespace, workload: str) -> List[Dict[str, Any]]:
    """Start the run's worker processes in turn; returns their results."""
    work_dir = os.path.join(ROOT, WORK_DIR)
    os.makedirs(work_dir, exist_ok=True)
    make_room(work_dir)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_dir)
    trace_out = os.path.join(ROOT, OUT_DIR, f"trace-{workload}-seed{args.seed}.jsonl")
    if args.trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        open(trace_out, "w").close()
    base = {
        "workload": workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "trace": bool(args.trace),
        "scratch": scratch,
        "trace_out": trace_out,
    }
    results = []
    if workload == "replay":
        shared = os.path.join(scratch, "shared")
        os.makedirs(shared)
        fill = dict(base, role="fill", shared=shared,
                    budget=args.seconds * FILL_SHARE, trace=False)
        results.append(spawn(fill))
        for _ in range(WARM_PROCESSES):
            results.append(spawn(dict(base, role="warm", shared=shared)))
        return results
    start = 0
    for index in range(PROCESSES):
        config = dict(
            base,
            role="timed",
            start=start,
            budget=args.seconds / PROCESSES,
            samples=EVENT_SAMPLES.get(workload, 0),
            canary=workload == "assessment" and index == PROCESSES - 1,
        )
        result = spawn(config)
        start += len(result["grids"])
        results.append(result)
    return results


def report(workload: str, args: argparse.Namespace, results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Print the human-readable report; return the final JSON object."""
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    print(f"== perfbench {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} processes={len(results)}")
    for result in results:
        for problem in result["failures"]:
            print(f"   FAILED {problem}")
    rows = []
    if args.trace:
        print("   (pool workers' times add up across workers, so a layer's share "
              "of the traced wall can pass 100%)")
        values = metrics.per_layer(results)
        out = {name: {"value": values[name], "unit": unit}
               for name, unit, _better in metrics.PER_LAYER}
        wall = values["trace.wall_s"]
        for name, unit, _better in metrics.PER_LAYER:
            share = ""
            if unit == "s" and wall and not name.startswith(("setup.", "trace.")):
                share = f"{100.0 * values[name] / wall:5.1f}% of traced wall"
            rows.append((name, values[name], unit, "", share))
    else:
        values = metrics.end_to_end(results)
        out = {name: {"value": values[name][0], "unit": unit}
               for name, unit, _better in metrics.END_TO_END}
        for name, (value, unit, n) in values.items():
            note = "needs >= 10 samples beyond p90" if value is None else ""
            rows.append((name, value, unit, n, ALIASES.get((workload, name), note)))
        ratio = failed / attempted if attempted else 0.0
        rows.append(("failed_ratio", ratio, "ratio", attempted, f"{failed} failed"))
    for name, value, unit, n, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"   {name:26s} {shown:>14s} {unit:10s} n={n!s:<5s} {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids, for the benchmark's own tests")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: program source not found under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outputs = {}
    for workload in workloads:
        outputs[workload] = report(workload, args, run_workload(args, workload))
    if len(workloads) == 1:
        print(json.dumps(outputs[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(o["correct"] for o in outputs.values()),
            "attempted": sum(o["attempted"] for o in outputs.values()),
            "failed": sum(o["failed"] for o in outputs.values()),
            "metrics": {f"{w}.{name}": m for w, o in outputs.items()
                        for name, m in o["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
