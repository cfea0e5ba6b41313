"""Start-up import graph: a process loads scipy and the linter only on use.

``discover()`` imports every experiment module, so anything an
experiment module imports at load time is paid by every process — a
simulation sweep, a cache replay, each pool worker.  The Bayes layer
imports ``scipy.special`` on first use and never ``scipy.stats``, and
the result cache reads the ruleset version from ``repro.lint.version``
without loading the analysis machinery.  The modules only a running
grid needs (the columnar resolver, the batch context, the assessment
plan) load when a grid first uses them.  Each check runs in a fresh
interpreter, because this test process has long since imported both.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def modules_after(code: str) -> list:
    """Names in ``sys.modules`` after a fresh interpreter runs *code*."""
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json, sys
        print("MODULES " + json.dumps(sorted(sys.modules)))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    marker = [
        line for line in completed.stdout.splitlines()
        if line.startswith("MODULES ")
    ]
    return json.loads(marker[-1][len("MODULES "):])


def test_discover_and_columnar_grid_load_no_scipy_and_no_lint_engine():
    modules = modules_after(
        """
        from repro.pipeline import (
            ExperimentOptions, discover, get_spec, run_experiment,
        )
        discover()
        run_experiment(
            get_spec("table5"),
            ExperimentOptions(seed=1, fast=True, backend="columnar"),
        )
        """
    )
    assert "repro.experiments.table5" in modules
    assert "repro.runtime.columnar" in modules
    assert [name for name in modules if name.split(".")[0] == "scipy"] == []
    lint = [name for name in modules if name.startswith("repro.lint.")]
    assert lint == ["repro.lint.version"]


def test_discover_loads_no_module_only_a_running_grid_needs():
    modules = modules_after(
        """
        from repro.pipeline import discover
        discover()
        """
    )
    assert "repro.experiments.table2" in modules
    assert "repro.experiments.event_sim" in modules
    for name in (
        "repro.bayes.evaluation_plan",
        "repro.runtime.batch",
        "repro.runtime.columnar",
    ):
        assert name not in modules


def test_table2_cell_loads_scipy_special_not_stats():
    modules = modules_after(
        """
        from repro.bayes.priors import GridSpec
        from repro.experiments.scenarios import scenario_1
        from repro.experiments.table2 import assessment_cells
        cell = assessment_cells(
            "table2", [scenario_1()], seed=1, grid=GridSpec(8, 8, 4),
            total_demands=200, checkpoint_every=100,
        )[0]
        cell.fn(**cell.kwargs)
        """
    )
    assert "scipy.special" in modules
    assert "scipy.stats" not in modules


def test_building_table2_cells_preloads_scipy_special():
    # Pool workers are forked from the process that builds the cells and
    # inherit its modules, so building the cells imports the Bayes
    # layer's scipy.special once instead of every worker per grid.
    # (discover() itself still loads no scipy: the first test above.)
    built = modules_after(
        """
        from repro.pipeline import ExperimentOptions, discover, get_spec
        discover()
        spec = get_spec("table2")
        options = ExperimentOptions(seed=1, fast=True)
        spec.build_cells(options, spec.sizes(options))
        """
    )
    assert "scipy.special" in built
    assert "scipy.stats" not in built
