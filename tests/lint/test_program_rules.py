"""Whole-program (REPRO2xx) rule tests over mini fixture programs.

Each rule has a violating fixture program and a clean twin under
``tests/lint/fixtures/program/``; fixture files impersonate canonical
modules with ``# repro-lint: module=...`` overrides and are parse-only
— nothing here is ever imported.  The violating twins pin exact rule
IDs and line numbers, including the PR 5 missing-``backend`` regression
shape that motivated REPRO201.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.lint.config import DEFAULT_CONFIG
from repro.lint.engine import run_program_lint
from repro.lint.program import all_program_rules
from repro.lint.rules import all_rules
from repro.lint.version import LINT_VERSION

PROGRAMS = Path(__file__).parent / "fixtures" / "program"


def program_findings(name: str, select=None):
    config = DEFAULT_CONFIG
    if select is not None:
        config = dataclasses.replace(config, select=frozenset(select))
    return run_program_lint([str(PROGRAMS / name)], config).findings


def ids_and_lines(findings):
    return [(finding.rule_id, finding.line) for finding in findings]


class TestCacheKeyCompleteness:
    def test_pr5_regression_shape_fires(self):
        # The motivating bug: a swept `backend` kwarg selecting the
        # computation path, missing from both key and schema.
        findings = program_findings("cachekey_bad", select={"REPRO201"})
        assert ids_and_lines(findings) == [
            ("REPRO201", 30),  # backend kwarg shares no dataflow with key
            ("REPRO201", 43),  # schema missing `profile`
            ("REPRO201", 43),  # schema declares `backend` no key produces
        ]

    def test_messages_name_the_drift(self):
        findings = program_findings("cachekey_bad", select={"REPRO201"})
        text = " ".join(finding.message for finding in findings)
        assert "'backend'" in text
        assert "missing key field(s) profile" in text
        assert "declares field(s) backend" in text

    def test_clean_twin(self):
        # Aliased keys, repr() transforms, observability kwargs, and
        # key=None traced cells are all accepted shapes.
        assert program_findings("cachekey_clean") == []

    def test_schema_imported_from_another_module_is_checked(self):
        # Tables 5/6 and the fidelity diff share one schema constant;
        # a spec that imports it is checked against it all the same.
        findings = program_findings(
            "cachekey_imported_schema", select={"REPRO201"}
        )
        assert ids_and_lines(findings) == [("REPRO201", 10)]
        assert "missing key field(s) backend" in findings[0].message

    def test_store_backed_grid_key_drift_fires(self):
        # Run-store streams are keyed like the cache, so REPRO201
        # also guards the store's key: a swept kwarg the key omits
        # would alias committed streams on resume.
        findings = program_findings("storekey_bad", select={"REPRO201"})
        assert ids_and_lines(findings) == [("REPRO201", 32)]
        assert "'sampling'" in findings[0].message

    def test_store_backed_clean_twin(self):
        assert program_findings("storekey_clean") == []


class TestRngStreamEscape:
    def test_direct_interprocedural_and_module_level(self):
        findings = program_findings("rng_bad", select={"REPRO202"})
        assert ids_and_lines(findings) == [
            ("REPRO202", 13),  # module-level stream
            ("REPRO202", 34),  # stream directly into cell kwargs
            ("REPRO202", 37),  # stream through make_cell's parameter
        ]

    def test_interprocedural_message_names_the_sink(self):
        findings = program_findings("rng_bad", select={"REPRO202"})
        text = " ".join(finding.message for finding in findings)
        assert "make_cell" in text
        assert "'stream'" in text

    def test_clean_twin(self):
        # Seeds across the boundary, generators derived inside the
        # cell, same-process generator parameters: all fine.
        assert program_findings("rng_clean") == []


class TestEnvelopeSync:
    def test_all_three_drift_axes(self):
        findings = program_findings("envelope_bad", select={"REPRO203"})
        assert ids_and_lines(findings) == [
            ("REPRO203", 20),  # declared slug never emitted
            ("REPRO203", 27),  # emitted slug never declared
            ("REPRO203", 35),  # resolver table missing SEQUENTIAL
            ("REPRO203", 9),   # undeclared counter slug (runner.py)
        ]

    def test_messages_name_slugs_and_mode(self):
        findings = program_findings("envelope_bad", select={"REPRO203"})
        text = " ".join(finding.message for finding in findings)
        assert "'never-emitted'" in text
        assert "'retry-mode'" in text
        assert "OperatingMode.SEQUENTIAL" in text
        assert "'bogus-slug'" in text

    def test_clean_twin(self):
        assert program_findings("envelope_clean") == []


class TestObsNameDrift:
    def test_literal_event_wrapper_and_prefix_drift(self):
        findings = program_findings("obsnames_bad", select={"REPRO204"})
        assert ids_and_lines(findings) == [
            ("REPRO204", 16),  # typo'd counter literal
            ("REPRO204", 17),  # undeclared trace-event kind
            ("REPRO204", 18),  # undeclared literal through _count wrapper
            ("REPRO204", 19),  # f-string with undeclared prefix
        ]

    def test_clean_twin(self):
        assert program_findings("obsnames_clean") == []


class TestProgramEngineBehaviour:
    def test_line_suppression_applies_to_program_findings(self, tmp_path):
        source = (PROGRAMS / "obsnames_bad" / "user.py").read_text()
        source = source.replace(
            'metrics.counter("cache.mis").inc()',
            'metrics.counter("cache.mis").inc()'
            "  # repro-lint: disable=REPRO204",
        )
        program = tmp_path / "prog"
        program.mkdir()
        (program / "user.py").write_text(source)
        (program / "names.py").write_text(
            (PROGRAMS / "obsnames_bad" / "names.py").read_text()
        )
        findings = run_program_lint([str(program)]).findings
        assert [f.line for f in findings] == [17, 18, 19]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def incomplete(:\n")
        run = run_program_lint([str(tmp_path)])
        assert [f.rule_id for f in run.findings] == ["REPRO100"]

    def test_findings_sorted_and_deterministic(self):
        once = program_findings("envelope_bad")
        again = program_findings("envelope_bad")
        assert once == again
        assert once == sorted(once, key=lambda f: f.sort_key())

    def test_rules_absent_anchors_stay_silent(self, tmp_path):
        # A program with none of the anchor modules (no CellSpec, no
        # columnar module, no names registry) produces no REPRO2xx
        # noise.
        (tmp_path / "plain.py").write_text(
            "def add(a, b):\n    return a + b\n"
        )
        assert run_program_lint([str(tmp_path)]).findings == []


class TestRulesetContracts:
    #: sha256 over the sorted ``rule_id:name`` manifest of every
    #: registered rule (per-file and whole-program).  Adding, removing,
    #: or renaming a rule changes the manifest — and MUST come with a
    #: LINT_VERSION bump, because the version is folded into every
    #: result-cache key (see repro.lint.version).
    PINNED = {
        "2.0.0": (
            "dab62ac27e0351637e7a6352ff6969514646fa8de63ba1fad7968c48edd5a05d"
        ),
    }

    def manifest_digest(self):
        manifest = "\n".join(
            sorted(
                f"{rule.rule_id}:{rule.name}"
                for rule in list(all_rules()) + list(all_program_rules())
            )
        )
        return hashlib.sha256(manifest.encode()).hexdigest()

    def test_ruleset_change_forces_version_bump(self):
        digest = self.manifest_digest()
        assert LINT_VERSION in self.PINNED, (
            f"LINT_VERSION {LINT_VERSION} has no pinned ruleset manifest: "
            f"add it to PINNED with digest {digest}"
        )
        assert self.PINNED[LINT_VERSION] == digest, (
            "the registered ruleset changed without a LINT_VERSION bump "
            "(cached results produced under the old ruleset would mask "
            "what the new ruleset catches); bump repro.lint.version."
            f"LINT_VERSION and pin the new digest {digest}"
        )

    def test_rule_ids_unique(self):
        rules = list(all_rules()) + list(all_program_rules())
        ids = [rule.rule_id for rule in rules]
        assert len(ids) == len(set(ids))

    def test_observability_params_match_pipeline_declaration(self):
        # The lint config duplicates the pipeline's observability-kwarg
        # tuple so the analyzer never imports the analyzed tree; this
        # pins the two copies together.
        from repro.pipeline.spec import CELL_OBSERVABILITY_PARAMS

        assert (
            DEFAULT_CONFIG.cell_observability_params
            == CELL_OBSERVABILITY_PARAMS
        )

    @pytest.mark.parametrize(
        "name",
        [
            "cachekey_clean",
            "rng_clean",
            "envelope_clean",
            "obsnames_clean",
            "storekey_clean",
        ],
    )
    def test_every_clean_twin_is_clean(self, name):
        assert program_findings(name) == []
