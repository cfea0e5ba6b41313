"""Command-line entry point regenerating every table and figure.

Usage (installed as ``repro-experiments``)::

    python -m repro.experiments.cli table2    # Table 2 (full, ~1 min)
    python -m repro.experiments.cli fig7      # Fig. 7 curve table
    python -m repro.experiments.cli fig8      # Fig. 8 curve table
    python -m repro.experiments.cli table5    # Table 5 (event-driven sim)
    python -m repro.experiments.cli table6    # Table 6
    python -m repro.experiments.cli calibrate # latency calibration sweep
    python -m repro.experiments.cli all       # everything

The subcommand table is not hand-written: every experiment registers an
:class:`~repro.pipeline.spec.ExperimentSpec` and this module renders the
registry (:data:`COMMANDS`) into the parser, so a new experiment becomes
a subcommand — with the full uniform flag set below — by registering a
spec (see docs/TUTORIAL.md, "Adding an experiment").

Options: ``--seed``, ``--fast`` (each spec's reduced smoke sizes),
``--profile {paper,calibrated}`` for the event-driven tables,
``--jobs N`` to fan independent experiment cells across N worker
processes (results are bit-identical to a sequential run),
``--backend {event,columnar,auto}`` to pick the demand-resolution
backend (``auto`` uses the columnar array backend where it is proven
bit-identical and the event kernel elsewhere; columnar-eligible grid
cells are fused into batched group executions), and ``--no-cache`` /
``--cache-dir`` / ``--clear-cache`` to control the on-disk result
cache.

Observability (see :mod:`repro.obs`): ``--trace PATH`` writes the
per-cell event stream as one merged JSONL trace (parts merged in
deterministic order, so the file is bit-identical for any ``--jobs``
value — compare runs with ``python -m repro.obs.diff``);
``--metrics-json PATH`` snapshots the cache / pool / kernel metrics
registry; ``--requests N`` overrides each spec's main workload knob
(requests, samples or demands; CI uses small cells).

``--store PATH`` attaches the run store (:mod:`repro.store`): every
completed cell (or batched chunk) commits its result as one file *as
it finishes*, and a re-run of the same grid discovers the committed
cells and skips them — so a run interrupted after k cells resumes where
it left off and finishes bit-identical to an uninterrupted one
(``python -m repro.store check-resume`` verifies exactly that).
"""

import argparse
import os
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from typing import List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import merge_traces

from repro.common.errors import ConfigurationError
from repro.experiments.paper_params import DEFAULT_SEED
from repro.pipeline import (
    ExperimentOptions,
    build_grid,
    discover,
    registered_specs,
    run_experiment,
)
from repro.pipeline.spec import check_requests, check_seed
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.parallel import resolve_jobs
from repro.store.log import RunStore

discover()

#: Subcommand table, generated from the spec registry (name -> spec).
COMMANDS = registered_specs()


def _command_listing() -> str:
    """Registry-driven help epilog: one line per experiment."""
    width = max(len(name) for name in COMMANDS)
    lines = [
        f"  {name:<{width}}  {spec.title}"
        for name, spec in sorted(COMMANDS.items())
    ]
    return "experiments (from the spec registry):\n" + "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Dependable Composite "
            "Web Services with Components Upgraded Online' (DSN 2004)."
        ),
        epilog=_command_listing(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(COMMANDS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"root random seed (default {DEFAULT_SEED})")
    parser.add_argument("--fast", action="store_true",
                        help="reduced sizes for a quick smoke run")
    parser.add_argument(
        "--profile",
        choices=("paper", "calibrated"),
        default="paper",
        help="latency profile for the event-driven tables",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="for 'report': write the markdown report to this path",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help=(
            "worker processes for independent experiment cells "
            "(default 1 = sequential; 0 = all CPUs; results are "
            "bit-identical for any value)"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "result cache directory (default $REPRO_CACHE_DIR or "
            "~/.cache/repro-dsn2004)"
        ),
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help=(
            "remove all cached results before running (may be used "
            "without an experiment to just clear)"
        ),
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "write the experiment's JSONL trace (kernel events, "
            "per-demand spans, posterior checkpoints) to PATH; "
            "deterministic for any --jobs value, diffable with "
            "'python -m repro.obs.diff'"
        ),
    )
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help=(
            "write the cache / pool / kernel metrics snapshot to PATH "
            "as JSON"
        ),
    )
    parser.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help=(
            "override the experiment's main workload knob — requests "
            "per run, Monte-Carlo samples or demand-stream length "
            "(default: paper size, or the --fast smoke size)"
        ),
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help=(
            "run store directory: each completed cell (or batched "
            "chunk) commits its result as one file as it finishes, and "
            "a re-run resumes from the committed cells (interrupted "
            "grids finish bit-identical to uninterrupted ones); "
            "'python -m repro.store check-resume' verifies this"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("event", "columnar", "auto"),
        default="auto",
        help=(
            "demand-resolution backend for the simulation grids: "
            "'event' threads every demand through the event kernel, "
            "'columnar' resolves whole cells as numpy array programs — "
            "bit-identical across the parallel operating modes and "
            "fixed-order sequential mode, any number of releases — "
            "'auto' (default) picks columnar everywhere except the "
            "event-only cases (tracing, non-paper adjudicators, retry, "
            "random-order sequential mode)"
        ),
    )
    return parser


def _options(
    args: argparse.Namespace, metrics: Optional[MetricsRegistry]
) -> ExperimentOptions:
    """Map the parsed flags onto the uniform engine options."""
    cache = None
    if not args.no_cache:
        cache = ResultCache(
            args.cache_dir or default_cache_dir(), metrics=metrics
        )
    store = None
    if args.store is not None:
        store = RunStore(args.store, metrics=metrics)
    return ExperimentOptions(
        seed=args.seed,
        fast=args.fast,
        profile=args.profile,
        jobs=args.jobs,
        cache=cache,
        requests=args.requests,
        metrics=metrics,
        output=args.output,
        backend=args.backend,
        store=store,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolve_jobs(args.jobs)
        check_seed(args.seed)
        check_requests(args.requests)
    except ConfigurationError as error:
        parser.error(str(error))
    if args.clear_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
        removed = cache.clear()
        print(f"cleared {removed} cached result(s) from {cache.root}")
        if args.experiment is None:
            return 0
    if args.experiment is None:
        parser.error("an experiment is required unless --clear-cache is given")
    if args.experiment == "all":
        # Composite experiments re-run the others (the 'report' spec),
        # so 'all' skips them and never recurses.
        names = sorted(
            name for name, spec in COMMANDS.items() if spec.in_all
        )
    else:
        names = [args.experiment]

    metrics = MetricsRegistry() if args.metrics_json is not None else None
    options = _options(args, metrics)
    try:
        # Build every grid before running any, so sizes a grid refuses
        # (a figure left with one checkpoint) stop the run before a
        # cell executes.
        for name in names:
            if not COMMANDS[name].is_composite:
                build_grid(COMMANDS[name], options)
    except ConfigurationError as error:
        parser.error(str(error))
    trace_dir = (
        tempfile.mkdtemp(prefix="repro-trace-")
        if args.trace is not None
        else None
    )
    options = replace(options, trace_dir=trace_dir)

    for name in names:
        started = time.time()
        try:
            outcome = run_experiment(COMMANDS[name], options)
        except ConfigurationError as error:
            # The report refuses its sections' sizes as it starts.
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
            parser.error(str(error))
        elapsed = time.time() - started
        print(f"=== {name} (seed={args.seed}, {elapsed:.1f}s) ===")
        print(outcome.text)
        print()

    if trace_dir is not None:
        # Per-cell trace parts merge in sorted-filename order — a pure
        # function of the grid, never of worker scheduling — so the
        # merged trace is bit-identical for any --jobs value.
        parts = sorted(
            os.path.join(trace_dir, entry)
            for entry in os.listdir(trace_dir)
            if entry.endswith(".jsonl")
        )
        count = merge_traces(parts, args.trace)
        shutil.rmtree(trace_dir, ignore_errors=True)
        print(
            f"trace: {count} events from {len(parts)} cell(s) "
            f"-> {args.trace}"
        )
    if metrics is not None:
        metrics.write_json(args.metrics_json)
        print(f"metrics -> {args.metrics_json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
