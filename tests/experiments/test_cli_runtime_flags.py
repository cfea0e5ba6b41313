"""Tests for the CLI's parallel-runtime and cache flags."""

import tempfile

import pytest

from repro.experiments.cli import build_parser, check_location, main
from repro.runtime.cache import ResultCache


class TestParsing:
    def test_jobs_default_is_sequential(self):
        assert build_parser().parse_args(["table5"]).jobs == 1

    def test_jobs_flag(self):
        assert build_parser().parse_args(["table5", "--jobs", "4"]).jobs == 4
        assert build_parser().parse_args(["table5", "-j", "0"]).jobs == 0

    def test_negative_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table5", "--fast", "--no-cache", "-j", "-2"])
        assert info.value.code == 2
        assert "jobs must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table5", "--fast", "--requests", "0"],  # fused grid
        ["table5", "--fast", "--requests", "-5"],
        ["fidelity", "--requests", "-1"],
        ["multirelease", "--fast", "--requests", "0"],  # per-cell grid
    ])
    def test_requests_below_one_is_a_usage_error(
        self, argv, capsys, tmp_path
    ):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--cache-dir", str(tmp_path / "cache")])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "requests must be >= 1" in captured.err
        # Rejected before any grid ran: nothing printed, nothing cached.
        assert captured.out == ""
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("experiment", [
        "table2",  # planned assessment grid
        "table5",  # fused grid
        "multirelease",  # per-cell grid
        "service_load",
        "calibrate",
    ])
    def test_negative_seed_is_a_usage_error(
        self, experiment, capsys, tmp_path
    ):
        with pytest.raises(SystemExit) as info:
            main([experiment, "--fast", "--seed", "-5",
                  "--cache-dir", str(tmp_path / "cache")])
        assert info.value.code == 2
        captured = capsys.readouterr()
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("repro-experiments: error: ")
        ]
        assert errors == ["repro-experiments: error: seed must be >= 0, got -5"]
        assert "Traceback" not in captured.err
        # Rejected before any grid ran: nothing printed, nothing cached.
        assert captured.out == ""
        assert not (tmp_path / "cache").exists()

    def test_cache_flags(self):
        args = build_parser().parse_args(
            ["table5", "--no-cache", "--cache-dir", "/tmp/x"]
        )
        assert args.no_cache and args.cache_dir == "/tmp/x"
        assert not build_parser().parse_args(["table5"]).no_cache

    def test_experiment_optional_only_for_clear_cache(self):
        assert build_parser().parse_args(["--clear-cache"]).experiment is None
        with pytest.raises(SystemExit):
            main([])

    def test_backend_default_is_auto(self):
        assert build_parser().parse_args(["table5"]).backend == "auto"

    def test_backend_flag(self):
        for backend in ("event", "columnar", "auto"):
            args = build_parser().parse_args(
                ["table5", "--backend", backend]
            )
            assert args.backend == backend

    def test_backend_rejects_unknown_value(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table5", "--backend", "batch"])


class TestCacheLifecycle:
    def test_run_populates_and_clear_cache_empties(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["table5", "--fast", "--seed", "1",
                "--cache-dir", str(cache_dir)]
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("===")
        ]
        assert main(argv) == 0
        assert ResultCache(cache_dir).entry_count() == 12
        first = strip(capsys.readouterr().out)

        # Replay from cache: identical table (header timing differs).
        assert main(argv) == 0
        assert strip(capsys.readouterr().out) == first

        assert main(["--clear-cache", "--cache-dir", str(cache_dir)]) == 0
        assert "cleared 12" in capsys.readouterr().out
        assert ResultCache(cache_dir).entry_count() == 0

    def test_no_cache_leaves_directory_empty(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["table5", "--fast", "--seed", "1", "--no-cache",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert ResultCache(cache_dir).entry_count() == 0

    def test_jobs_output_matches_sequential(self, capsys):
        assert main(["table5", "--fast", "--seed", "1", "--no-cache",
                     "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(["table5", "--fast", "--seed", "1", "--no-cache"]) == 0
        sequential = capsys.readouterr().out
        # Strip the timing header line, which is wall-clock dependent.
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("===")
        ]
        assert strip(parallel) == strip(sequential)

    def test_backend_output_matches_event(self, capsys):
        # The backends' bit-identity, end to end through the CLI: the
        # rendered tables must match character for character.
        base = ["table5", "--seed", "1", "--requests", "200", "--no-cache"]
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("===")
        ]
        assert main(base + ["--backend", "event"]) == 0
        event = strip(capsys.readouterr().out)
        assert main(base + ["--backend", "columnar"]) == 0
        columnar = strip(capsys.readouterr().out)
        assert main(base + ["--backend", "auto"]) == 0
        auto = strip(capsys.readouterr().out)
        assert event == columnar == auto


class TestOutputLocations:
    """A location nothing could be written to is refused before any cell
    runs or any scratch directory is made."""

    @pytest.fixture
    def scratch(self, tmp_path, monkeypatch):
        """Where --trace's per-cell scratch directory would be made."""
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        return scratch

    def _refused(self, argv, flag, tmp_path, scratch, capsys):
        if flag not in ("--cache-dir", "REPRO_CACHE_DIR"):
            argv = argv + ["--cache-dir", str(tmp_path / "cache")]
        with pytest.raises(SystemExit) as info:
            main(["table5", "--fast", "--seed", "1"] + argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("repro-experiments: error: ")
        ]
        assert len(errors) == 1 and flag in errors[0], captured.err
        assert "Traceback" not in captured.err
        # Nothing ran: nothing printed, cached or left in the scratch.
        assert captured.out == ""
        assert not (tmp_path / "cache").exists()
        assert list(scratch.iterdir()) == []
        return errors[0]

    @pytest.mark.parametrize("flag, location", [
        ("--cache-dir", "file"),
        ("--cache-dir", "file/cache"),
        ("--store", "file"),
        ("--store", "file/store"),
        ("--trace", "file/trace.jsonl"),
        ("--metrics-json", "file/deeper/metrics.json"),
        ("--output", "file/report.md"),
    ])
    def test_location_at_or_under_a_regular_file(
        self, flag, location, tmp_path, scratch, capsys
    ):
        (tmp_path / "file").write_text("not a directory\n")
        error = self._refused(
            [flag, str(tmp_path / location)], flag, tmp_path, scratch, capsys
        )
        assert "not a directory" in error

    @pytest.mark.parametrize("location", ["file", "file/cache"])
    @pytest.mark.parametrize("argv", [[], ["--clear-cache"]], ids=str)
    def test_cache_location_from_the_environment(
        self, location, argv, tmp_path, scratch, capsys, monkeypatch
    ):
        (tmp_path / "file").write_text("not a directory\n")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / location))
        error = self._refused(
            argv, "REPRO_CACHE_DIR", tmp_path, scratch, capsys
        )
        assert "not a directory" in error

    def test_cache_flag_overrides_the_environment(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "file").write_text("not a directory\n")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "file"))
        cache = tmp_path / "cache"
        assert main(["--clear-cache", "--cache-dir", str(cache)]) == 0
        assert f"from {cache}" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--trace", "--metrics-json", "--output"])
    def test_file_location_that_is_a_directory(
        self, flag, tmp_path, scratch, capsys
    ):
        (tmp_path / "directory").mkdir()
        error = self._refused(
            [flag, str(tmp_path / "directory")], flag, tmp_path, scratch,
            capsys,
        )
        assert "is a directory" in error

    @pytest.mark.parametrize("location, directory", [
        ("missing/parents/out.json", False),
        ("missing/parents/store", True),
        ("existing.json", False),
        (".", True),
    ])
    def test_writable_locations_pass(self, location, directory, tmp_path):
        (tmp_path / "existing.json").write_text("{}\n")
        check_location("--flag", str(tmp_path / location), directory)
