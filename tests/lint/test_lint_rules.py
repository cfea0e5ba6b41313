"""Per-rule fixture tests: exact rule IDs and line numbers.

Each rule has a violating fixture module and a clean twin under
``tests/lint/fixtures/``; the fixtures use ``# repro-lint: module=...``
overrides to opt into scoped rules from outside ``src/``.
"""

from pathlib import Path

import pytest

from repro.lint.engine import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(name: str):
    return lint_paths([str(FIXTURES / name)])


def ids_and_lines(findings):
    return [(finding.rule_id, finding.line) for finding in findings]


class TestRngDiscipline:
    def test_violations_exact_lines(self):
        findings = findings_for("rng_violations.py")
        assert ids_and_lines(findings) == [
            ("REPRO101", 8),
            ("REPRO101", 9),
            ("REPRO101", 10),
            ("REPRO101", 11),
            ("REPRO101", 12),
            ("REPRO101", 16),
            ("REPRO101", 20),
        ]

    def test_unseeded_and_seeded_messages_differ(self):
        findings = findings_for("rng_violations.py")
        by_line = {finding.line: finding.message for finding in findings}
        assert "unseeded" in by_line[8]
        assert "seed audit" in by_line[9]

    def test_clean_twin(self):
        assert findings_for("rng_clean.py") == []

    def test_seeding_module_itself_is_exempt(self):
        assert lint_paths(["src/repro/common/seeding.py"]) == []


class TestWallClock:
    def test_violations_exact_lines(self):
        findings = findings_for("wallclock_violations.py")
        assert ids_and_lines(findings) == [
            ("REPRO102", 10),
            ("REPRO102", 14),
            ("REPRO102", 18),
            ("REPRO102", 22),
        ]

    def test_clean_twin_out_of_scope(self):
        # Same calls, no module override => outside the banned packages.
        assert findings_for("wallclock_clean.py") == []


class TestPoolHygiene:
    def test_violations(self):
        findings = findings_for("pool_violations.py")
        pairs = ids_and_lines(findings)
        assert all(rule == "REPRO103" for rule, _ in pairs)
        lines = [line for _, line in pairs]
        assert 23 in lines  # lambda cell
        assert 24 in lines  # nested function cell
        assert 10 in lines  # mutable-global read inside leaky_cell
        assert 15 in lines  # generator cell
        assert len(pairs) == 4

    def test_messages_name_the_problem(self):
        findings = findings_for("pool_violations.py")
        text = " ".join(finding.message for finding in findings)
        assert "lambda" in text
        assert "generator" in text
        assert "mutable" in text
        assert "module-level" in text

    def test_clean_twin(self):
        assert findings_for("pool_clean.py") == []


class TestUnorderedIteration:
    def test_violations_exact_lines(self):
        findings = findings_for("unordered_violations.py")
        assert ids_and_lines(findings) == [
            ("REPRO104", 9),
            ("REPRO104", 15),
            ("REPRO104", 19),
            ("REPRO104", 23),
        ]

    def test_clean_twin(self):
        assert findings_for("unordered_clean.py") == []


class TestFloatAccumulation:
    def test_violations_exact_lines(self):
        findings = findings_for("floatsum_violations.py")
        assert ids_and_lines(findings) == [
            ("REPRO105", 6),
            ("REPRO105", 10),
            ("REPRO105", 14),
            ("REPRO105", 18),
        ]

    def test_clean_twin(self):
        assert findings_for("floatsum_clean.py") == []


class TestPaperLiterals:
    def test_violations_exact_lines(self):
        findings = findings_for("literals_violations.py")
        assert ids_and_lines(findings) == [
            ("REPRO106", 6),
            ("REPRO106", 7),
            ("REPRO106", 11),
            ("REPRO106", 12),
        ]

    def test_messages_name_the_parameter(self):
        findings = findings_for("literals_violations.py")
        text = " ".join(finding.message for finding in findings)
        assert "REQUESTS_PER_RUN" in text
        assert "SCENARIO_DEMANDS" in text
        assert "CONFIDENCE_LEVEL" in text

    def test_clean_twin(self):
        assert findings_for("literals_clean.py") == []


class TestSuppressions:
    def test_only_the_mismatched_rule_survives(self):
        findings = findings_for("suppressed.py")
        assert ids_and_lines(findings) == [("REPRO101", 22)]

    def test_suppression_is_line_scoped(self, tmp_path):
        source = (
            "# repro-lint: module=repro.simulation.fake\n"
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: disable=REPRO101\n"
            "rng2 = np.random.default_rng()\n"
        )
        path = tmp_path / "scoped.py"
        path.write_text(source)
        findings = lint_paths([str(path)])
        assert ids_and_lines(findings) == [("REPRO101", 4)]

    def test_multiple_codes_on_one_comment(self, tmp_path):
        # One comment can disable several rules on its line (spaces
        # around the commas allowed); other rules still fire there.
        source = (
            "# repro-lint: module=repro.simulation.fake\n"
            "import numpy as np\n"
            "import time\n"
            "def cell():\n"
            "    t = time.time()  "
            "# repro-lint: disable=REPRO101, REPRO102\n"
            "    rng = np.random.default_rng()  "
            "# repro-lint: disable=REPRO102,REPRO104\n"
        )
        path = tmp_path / "multi.py"
        path.write_text(source)
        findings = lint_paths([str(path)])
        # Line 5's REPRO102 is suppressed; line 6 suppresses the wrong
        # rules, so its REPRO101 survives.
        assert ids_and_lines(findings) == [("REPRO101", 6)]

    def test_unknown_rule_code_is_inert(self, tmp_path):
        # Disabling a rule that doesn't exist neither errors nor
        # suppresses anything else.
        source = (
            "# repro-lint: module=repro.simulation.fake\n"
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# repro-lint: disable=REPRO999\n"
        )
        path = tmp_path / "unknown.py"
        path.write_text(source)
        findings = lint_paths([str(path)])
        assert ids_and_lines(findings) == [("REPRO101", 3)]

    def test_malformed_module_override_is_not_a_scope(self, tmp_path):
        # `module=` with no value matches nothing; one with invalid
        # characters only binds its leading identifier run.  Neither
        # lands the file in a scoped package, so scoped rules like the
        # wall-clock ban stay off.
        source = (
            "# repro-lint: module=\n"
            "# repro-lint: module=not a dotted name!\n"
            "import time\n"
            "def cell():\n"
            "    return time.time()\n"
        )
        path = tmp_path / "malformed.py"
        path.write_text(source)
        assert lint_paths([str(path)]) == []

    def test_module_override_only_honoured_near_top(self, tmp_path):
        # An override buried past the window is ignored.
        filler = "\n" * 12
        source = (
            filler
            + "# repro-lint: module=repro.simulation.fake\n"
            + "import time\n"
            + "def cell():\n"
            + "    return time.time()\n"
        )
        path = tmp_path / "buried.py"
        path.write_text(source)
        assert lint_paths([str(path)]) == []


class TestEngineBehaviour:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def incomplete(:\n")
        findings = lint_paths([str(path)])
        assert [finding.rule_id for finding in findings] == ["REPRO100"]

    def test_findings_sorted_and_stable(self):
        names = ["rng_violations.py", "floatsum_violations.py"]
        paths = [str(FIXTURES / name) for name in names]
        once = lint_paths(paths)
        again = lint_paths(list(reversed(paths)))
        assert once == again
        assert once == sorted(once, key=lambda f: f.sort_key())

    @pytest.mark.parametrize(
        "name",
        [
            "rng_clean.py",
            "wallclock_clean.py",
            "pool_clean.py",
            "unordered_clean.py",
            "floatsum_clean.py",
            "literals_clean.py",
        ],
    )
    def test_every_clean_twin_is_clean(self, name):
        assert findings_for(name) == []
