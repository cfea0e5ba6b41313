"""Programmatic markdown reproduction report.

``repro-experiments report`` regenerates a self-contained markdown
document with every experiment's current numbers — the machine-written
counterpart of the hand-annotated EXPERIMENTS.md.  Useful for checking a
code change against the whole evaluation at once, and for readers who
want the raw regenerated tables without prose.

The report is composed from the registered specs: each section runs one
experiment through :func:`~repro.pipeline.engine.run_experiment` under
the report's own options and renders the result.  So every section has
its spec's sizes (``--fast``, ``--requests``) and honours every run
option (``--jobs``, ``--backend``, the result cache, ``--store``,
``--trace``, ``--metrics-json``), and a report run after ``all`` with
the same options is served by the cache ``all`` filled.
"""

import os
import time
from typing import Any, Callable, List, Tuple

from repro.analysis.stats import reliability_ordering
from repro.common.tables import render_markdown_table
from repro.experiments.event_sim import profile_by_name
from repro.pipeline import (
    ExperimentOptions,
    ExperimentSpec,
    build_grid,
    get_spec,
    register,
    run_experiment,
)


def _table2_section(result) -> str:
    rows = []
    for (scenario, detection) in result.histories:
        row: List[object] = [scenario, detection]
        for criterion in ("criterion-1", "criterion-2", "criterion-3"):
            cell = result.cell(scenario, detection, criterion)
            row.append(cell.text)
        rows.append(row)
    return "## Table 2 — duration of managed upgrade\n\n" + (
        render_markdown_table(
            ["Scenario", "Detection", "Criterion 1", "Criterion 2",
             "Criterion 3"],
            rows,
        )
    )


def _figure_section(name: str, curves) -> str:
    rows = []
    stride = max(1, len(curves.demands) // 10)
    labels = [l for l in curves.PAPER_CURVES if l in curves.series]
    for i in range(0, len(curves.demands), stride):
        rows.append(
            [curves.demands[i]] + [curves.series[k][i] for k in labels]
        )
    bound = curves.detection_confidence_error_ok()
    return (
        f"## {name} — percentile curves ({curves.scenario})\n\n"
        + render_markdown_table(["Demands"] + labels, rows,
                                float_digits=6)
        + f"\n\n90%-perfect <= 99%-omission everywhere: **{bound}**"
    )


def _event_table_section(label: str, table) -> str:
    rows = []
    for result in table.results:
        metrics = result.metrics
        rows.append([
            result.run,
            result.timeout,
            metrics.releases[0].mean_execution_time,
            metrics.system.mean_execution_time,
            metrics.releases[0].counts.correct,
            metrics.releases[1].counts.correct,
            metrics.system.counts.correct,
            metrics.system.no_response,
            reliability_ordering(metrics),
        ])
    return f"## {label}\n\n" + render_markdown_table(
        ["Run", "TimeOut", "Rel1 MET", "Sys MET", "Rel1 CR", "Rel2 CR",
         "Sys CR", "Sys NRDT", "Reliability ordering"],
        rows,
    )


def _calibration_section(result) -> str:
    fits, best = result
    ordered = sorted(fits, key=lambda fit: fit.error())[:5]
    paper_fit = next(fit for fit in fits if fit.profile_name == "paper")
    rows = [
        [fit.profile_name, fit.release_met, fit.nrdt_rate[1.5],
         fit.system_nrdt_rate[1.5], fit.error()]
        for fit in [*ordered, paper_fit]
    ]
    return (
        "## Latency calibration (ablation)\n\n"
        + render_markdown_table(
            ["Profile", "Rel MET", "Rel NRDT@1.5", "Sys NRDT@1.5",
             "Error"],
            rows,
        )
        + f"\n\nBest fit: **{best.profile_name}**"
    )


def _multi_release_section(sweep) -> str:
    rows = [
        [n, m.system.availability, m.system.reliability,
         m.system.mean_execution_time]
        for n, m in zip(sweep.release_counts, sweep.metrics)
    ]
    return (
        f"## Extension: 1-out-of-N releases (latency profile "
        f"'{sweep.profile}')\n\n"
        + render_markdown_table(
            ["Releases", "Availability", "Reliability", "System MET"],
            rows,
        )
    )


#: The report's sections, in order: the registered experiment each one
#: runs, and how it renders that experiment's result.
SECTIONS: Tuple[Tuple[str, Callable[[Any], str]], ...] = (
    ("table2", _table2_section),
    ("fig7", lambda curves: _figure_section("Fig. 7", curves)),
    ("fig8", lambda curves: _figure_section("Fig. 8", curves)),
    ("table5", lambda table: _event_table_section(
        "Table 5 — correlated releases", table)),
    ("table6", lambda table: _event_table_section(
        "Table 6 — independent releases", table)),
    ("calibrate", _calibration_section),
    ("multirelease", _multi_release_section),
)


def generate_report(options: ExperimentOptions) -> str:
    """Run every section's experiment under *options*; return the report.

    The numbers are identical for any ``jobs`` value and backend, and
    equal to what each experiment's own subcommand computes under the
    same options.
    """
    # Build every section's grid first, so sizes one of them refuses
    # stop the report before any section runs.
    for name, _render in SECTIONS:
        build_grid(get_spec(name), options)
    started = time.strftime("%Y-%m-%d %H:%M:%S")
    sections = [
        "# Reproduction report — Dependable Composite Web Services "
        "with Components Upgraded Online (DSN 2004)",
        f"Generated {started}; seed {options.seed}; "
        f"{'fast' if options.fast else 'full'} sizes; latency profile "
        f"'{profile_by_name(options.profile).name}'.",
    ]
    for name, render in SECTIONS:
        sections.append(render(run_experiment(get_spec(name), options).value))
    return "\n\n".join(sections) + "\n"


def _composite(options: ExperimentOptions) -> str:
    text = generate_report(options)
    if options.output:
        # Like --trace and --metrics-json, missing parents are created.
        parent = os.path.dirname(os.path.abspath(options.output))
        os.makedirs(parent, exist_ok=True)
        with open(options.output, "w") as handle:
            handle.write(text)
    return text


def _render(text: str, options: ExperimentOptions) -> str:
    if options.output:
        return f"report written to {options.output}"
    return text


REPORT_SPEC = register(ExperimentSpec(
    name="report",
    title="Markdown reproduction report over every experiment",
    composite=_composite,
    render=_render,
))
