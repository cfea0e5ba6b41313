"""Tests for the markdown report: its sections, and its composition
from the registered specs."""

import json

from repro.bayes.priors import GridSpec
from repro.experiments import report as report_mod
from repro.experiments.cli import main
from repro.experiments.event_sim import (
    SimulationTable,
    calibrated_profile,
    profile_by_name,
    release_pair_cells,
)
from repro.experiments.multi_release import run_n_release_simulation
from repro.experiments.percentile_curves import curves_from_histories
from repro.experiments.scenarios import detection_models, scenario_2
from repro.experiments.table2 import assessment_cells
from repro.pipeline import (
    ExperimentOptions,
    build_grid,
    get_spec,
    run_experiment,
)
from repro.runtime.parallel import run_cells


class TestSections:
    def test_figure_section(self):
        cells = assessment_cells(
            "fig8", [scenario_2()], seed=3, grid=GridSpec(48, 48, 16),
            total_demands=2_000, checkpoint_every=500,
        )
        histories = dict(zip(detection_models(), run_cells(cells)))
        curves = curves_from_histories(scenario_2().name, histories)
        text = report_mod._figure_section("Fig. 8", curves)
        assert text.startswith("## Fig. 8")
        assert "| Demands |" in text
        assert "99%-omission everywhere" in text

    def test_multi_release_section_names_the_profile_its_cells_ran(self):
        # --profile paper reaches Tables 5/6; the sweep's cells take no
        # profile and run the calibrated one.
        options = ExperimentOptions(
            seed=1, fast=True, requests=300, profile="paper"
        )
        spec = get_spec("multirelease")
        sweep = run_experiment(spec, options).value
        profile = profile_by_name(sweep.profile)
        assert profile.name == calibrated_profile().name != "paper"
        assert report_mod._multi_release_section(sweep).startswith(
            f"## Extension: 1-out-of-N releases (latency profile "
            f"'{profile.name}')\n"
        )
        # The named profile reproduces the section's numbers.
        cell = build_grid(spec, options)[-1]
        rerun = run_n_release_simulation(**cell.kwargs, profile=profile)
        assert rerun.system.counts == sweep.metrics[-1].system.counts
        assert (
            rerun.system.mean_execution_time
            == sweep.metrics[-1].system.mean_execution_time
        )

    def test_event_table_section(self):
        cells = release_pair_cells(
            "table5", "correlated", seed=3, requests=300,
            timeouts=(1.5,), runs=(1,),
        )
        table = SimulationTable(label="Table 5", results=run_cells(cells))
        text = report_mod._event_table_section("Table 5", table)
        assert "| Run | TimeOut |" in text
        assert "above-both" in text or "between" in text


class TestComposedFromSpecs:
    #: Small cells, yet two checkpoints per Fig. 7 curve (every 2,000
    #: demands), which its plot needs.
    FLAGS = ["--fast", "--seed", "1", "--requests", "2500", "--jobs", "2"]

    def test_report_is_served_by_the_cache_all_filled(self, tmp_path):
        cache_dir = tmp_path / "cache"
        flags = self.FLAGS + ["--cache-dir", str(cache_dir)]
        assert main(["all", *flags]) == 0
        entries = sorted(cache_dir.rglob("*"))

        metrics_path = tmp_path / "report.json"
        output = tmp_path / "report.md"
        assert main([
            "report", *flags, "--metrics-json", str(metrics_path),
            "--output", str(output),
        ]) == 0

        # Every section's cells hit the cache: no miss, no new entry.
        assert sorted(cache_dir.rglob("*")) == entries
        counters = json.loads(metrics_path.read_text())["counters"]
        options = ExperimentOptions(seed=1, fast=True, requests=2_500)
        cells = 0
        for name, _render in report_mod.SECTIONS:
            spec = get_spec(name)
            cells += len(spec.build_cells(options, spec.sizes(options)))
        assert counters.get("cache.miss", 0) == 0
        assert counters["cache.hit"] == cells

        text = output.read_text()
        assert "seed 1; fast sizes; latency profile 'paper'" in text
        for heading in (
            "## Table 2", "## Fig. 7", "## Fig. 8", "## Table 5",
            "## Table 6", "## Latency calibration",
            "## Extension: 1-out-of-N",
        ):
            assert heading in text
        assert "| scenario-1 | perfect |" in text
        assert "| paper |" in text
        assert "Best fit" in text

    def test_output_parents_are_created(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            report_mod, "generate_report", lambda options: "report\n"
        )
        output = tmp_path / "missing" / "parents" / "report.md"
        report_mod._composite(ExperimentOptions(seed=1, output=str(output)))
        assert output.read_text() == "report\n"

    def test_cli_output_flag_parsed(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["report", "--output", "/tmp/x.md"]
        )
        assert args.output == "/tmp/x.md"
