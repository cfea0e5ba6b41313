"""Command-line tools for the run store.

Usage (``python -m repro.store``)::

    python -m repro.store check-resume EXPERIMENT [--jobs N]
                                  [--backend B] [--kill-after K] ...

``check-resume`` is the *determinism harness* CI runs: it executes a
grid in a subprocess, SIGTERMs it after K cells have committed,
resumes from the half-written store, and byte-compares the rendered
output against an uninterrupted baseline run.  Exit 0 means the
kill-and-resume run is bit-identical to the straight-through run.  A
kill that lands after the run committed every cell the baseline
committed interrupts nothing, so it exits 1 without resuming: a grid
that outruns the kill needs a larger ``--requests`` (or a smaller
``--kill-after`` / ``--batch-max-cells``).

To resume a grid by hand, re-run ``repro-experiments EXPERIMENT --store
PATH``: committed cells are served from the store, the rest execute.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Normalises the experiment banner line, whose elapsed-seconds field is
#: wall-clock and therefore differs between otherwise identical runs.
_BANNER = re.compile(r"^(=== \S+) \(seed=\d+, [0-9.]+s\) ===$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description=(
            "Check that the run store resumes an interrupted grid "
            "bit-identically (one sealed file per committed cell or "
            "chunk)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check-resume",
        help="kill a grid run mid-flight, resume it, and verify the "
             "output is bit-identical to an uninterrupted run",
    )
    check.add_argument("experiment")
    check.add_argument("--jobs", type=int, default=1)
    check.add_argument(
        "--backend", choices=("event", "columnar", "auto"), default="auto"
    )
    check.add_argument(
        "--kill-after", type=int, default=2, metavar="K",
        help="SIGTERM the run once K cells have committed (default 2)",
    )
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--requests", type=int, default=None, metavar="N")
    check.add_argument(
        "--full", action="store_true",
        help="run at paper sizes (default: --fast smoke sizes)",
    )
    check.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-subprocess wall-clock budget in seconds",
    )
    check.add_argument(
        "--keep", action="store_true",
        help="keep the scratch store directories for inspection",
    )
    check.add_argument(
        "--batch-max-cells", type=int, default=None, metavar="C",
        help=(
            "cap batched group chunks at C cells in the child runs "
            "(exports REPRO_BATCH_MAX_CELLS) so the kill lands on a "
            "batch commit boundary even in small grids"
        ),
    )
    return parser


def _experiments_cli(cmd: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "repro.experiments.cli", *cmd]


def _subprocess_env() -> Dict[str, str]:
    # Make the repro package importable in children even when it is run
    # from a source tree (PYTHONPATH=src) rather than installed.
    import repro

    package_parent = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_parent not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_parent + (os.pathsep + existing if existing else "")
        )
    return env


def _committed_cells(root: Path) -> int:
    """Committed *cells* under a store root.

    Each readable stream file counts its records: 1 for a per-cell
    file, every member for a batched chunk, so ``--kill-after``
    thresholds mean the same number of cells whether or not the victim
    runs batched.
    """
    count = 0
    for path in root.glob("*/*.json"):
        try:
            with open(path, "rb") as handle:
                count += len(json.load(handle)["results"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return count


def _normalise_output(text: str) -> str:
    lines = []
    for line in text.splitlines():
        banner = _BANNER.match(line)
        lines.append(f"{banner.group(1)} ===" if banner else line)
    return "\n".join(lines)


def _run_to_completion(
    cmd: List[str], env: Dict[str, str], timeout: float
) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        cmd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


def _cmd_check_resume(args: argparse.Namespace) -> int:
    env = _subprocess_env()
    if args.batch_max_cells is not None:
        env["REPRO_BATCH_MAX_CELLS"] = str(args.batch_max_cells)
    scratch = Path(tempfile.mkdtemp(prefix="repro-check-resume-"))
    try:
        return _check_resume(args, env, scratch)
    finally:
        if args.keep:
            print(f"scratch stores kept under {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


def _check_resume(
    args: argparse.Namespace, env: Dict[str, str], scratch: Path
) -> int:
    store_killed = scratch / "store-killed"
    store_baseline = scratch / "store-baseline"
    base_cmd = [args.experiment, "--no-cache", "--jobs", str(args.jobs),
                "--backend", args.backend]
    if not args.full:
        base_cmd.append("--fast")
    if args.seed is not None:
        base_cmd += ["--seed", str(args.seed)]
    if args.requests is not None:
        base_cmd += ["--requests", str(args.requests)]

    # 1. Straight-through baseline (its own fresh store, never killed).
    baseline = _run_to_completion(
        _experiments_cli(base_cmd + ["--store", str(store_baseline)]),
        env,
        args.timeout,
    )
    if baseline.returncode != 0:
        print("baseline run failed:", file=sys.stderr)
        sys.stderr.write(baseline.stderr)
        return 2

    # 2. Interrupted run: SIGTERM the whole process group once
    #    --kill-after cells have committed to the store.
    victim = subprocess.Popen(
        _experiments_cli(base_cmd + ["--store", str(store_killed)]),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.time() + args.timeout
    while victim.poll() is None:
        if _committed_cells(store_killed) >= args.kill_after:
            os.killpg(victim.pid, signal.SIGTERM)
            break
        if time.time() > deadline:
            os.killpg(victim.pid, signal.SIGKILL)
            print("interrupted run exceeded --timeout", file=sys.stderr)
            return 2
        time.sleep(0.02)
    victim.wait(timeout=60.0)
    committed = _committed_cells(store_killed)
    total = _committed_cells(store_baseline)
    if committed >= total:
        # Nothing is left to resume, so the check would only replay a
        # finished store: a pass here would prove nothing.
        print(
            f"the kill did not interrupt the run: the killed store holds "
            f"{committed} of the baseline's {total} cell(s); raise "
            f"--requests, or lower --kill-after / --batch-max-cells",
            file=sys.stderr,
        )
        return 1
    print(
        f"killed run after {committed} of {total} committed cell(s) "
        f"(SIGTERM at >= {args.kill_after})"
    )

    # 3. Resume from the half-written store.
    resumed = _run_to_completion(
        _experiments_cli(base_cmd + ["--store", str(store_killed)]),
        env,
        args.timeout,
    )
    if resumed.returncode != 0:
        print("resumed run failed:", file=sys.stderr)
        sys.stderr.write(resumed.stderr)
        return 2

    if _normalise_output(resumed.stdout) != _normalise_output(
        baseline.stdout
    ):
        print(
            "resume determinism FAILED: resumed output differs from "
            "the uninterrupted baseline",
            file=sys.stderr,
        )
        sys.stderr.write(
            "--- baseline ---\n" + baseline.stdout
            + "\n--- resumed ---\n" + resumed.stdout
        )
        return 1
    print(
        f"resume determinism OK: interrupted+resumed output is "
        f"bit-identical to the uninterrupted run "
        f"({args.experiment}, jobs={args.jobs}, "
        f"backend={args.backend})"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _cmd_check_resume(args)
    except BrokenPipeError:
        # Output truncated downstream (e.g. `| head`) — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
