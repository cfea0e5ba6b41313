"""The experiment layer declares grids; it never runs one.

Every experiment registers an ``ExperimentSpec`` and
``repro.pipeline.run_experiment`` is the one place a registered grid
meets ``run_cells``.  A module under ``repro.experiments`` or
``repro.bayes`` that names ``run_cells`` is a second pipeline beside
its spec, free to drift from the spec's sizes and defaults, so this
test parses every such module and fails on any reference.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages whose modules must not reference ``run_cells``.
DECLARATIVE_PACKAGES = ("experiments", "bayes")


def run_cells_references(path: Path) -> list:
    """Lines of *path* that name ``run_cells``: imports, loads, attributes."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if "run_cells" in names:
            lines.append(node.lineno)
    return sorted(lines)


def test_no_experiment_or_bayes_module_references_run_cells():
    found = []
    for package in DECLARATIVE_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for line in run_cells_references(path):
                found.append(f"{path.relative_to(SRC.parent)}:{line}")
    assert found == [], "run_cells referenced: " + ", ".join(found)


def test_the_scan_sees_each_form_of_reference(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from repro.runtime.parallel import run_cells\n"
        "import repro.runtime.parallel as parallel\n"
        "parallel.run_cells([])\n"
        "runner = run_cells\n"
    )
    assert run_cells_references(module) == [1, 3, 4]
    # The engine, the one caller, is found in the real tree.
    assert run_cells_references(SRC / "pipeline" / "engine.py")
