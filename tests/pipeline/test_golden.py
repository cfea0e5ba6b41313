"""Golden fixtures: rendered bytes and on-disk addresses, pinned.

The Table 5/6, fidelity and multirelease grids at ``fast=True``,
``requests=300``, seed 1 were recorded once under
``tests/fixtures/golden/``:

* ``<spec>.txt`` — the rendered text, byte for byte;
* ``addresses.json`` — per cell, in grid order, the result-cache entry
  path and the run-store stream digest of its key; and the group
  streams a cold run with a store commits (digest and member count).

A change to the warm path (cache addressing, reads, render) must leave
every one of these unchanged: a cache filled by an older tree has to
keep serving every cell, and the store has to keep addressing each cell
and chunk by the same digest.  (A store written before the one-file
layout reads as empty: its cells re-run once and commit anew.)

The rendered tables show MET to four decimals, which cannot see a
last-bit drift in a 10,000-term sum, so ``cells.json`` also pins the
same four grids at their full size (table5, table6 and fidelity at
10,000 requests per cell, multirelease at 5,000), seed 1: per cell, in
grid order, and per column (``Rel1`` .. ``System``), the CR/EER/NER and
NRDT counts, the total requests, the MET accumulator as
``float.hex()`` and the number of times it summed.

To re-record after a deliberate format or model change::

    PYTHONPATH=src python tests/pipeline/test_golden.py --record
"""

import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    ExperimentOptions,
    discover,
    get_spec,
    run_experiment,
)
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import run_cells
from repro.simulation.metrics import SystemMetrics
from repro.store.log import RunStore

discover()

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "fixtures" / "golden"
GOLDEN_SPECS = ("table5", "table6", "fidelity", "multirelease")
ADDRESSES = GOLDEN_DIR / "addresses.json"
CELLS = GOLDEN_DIR / "cells.json"


def _options(**overrides: Any) -> ExperimentOptions:
    return ExperimentOptions(seed=1, fast=True, requests=300, **overrides)


def _addresses(name: str, root: Path) -> Dict[str, Any]:
    """The cell addresses of *name*, and the group streams a cold run
    with a store under *root* commits."""
    spec = get_spec(name)
    options = _options()
    assert spec.build_cells is not None
    cells = [
        cell for cell in spec.build_cells(options, spec.sizes(options))
        if cell.key is not None
    ]
    cache = ResultCache(root / "cache")
    store = RunStore(root / "store")
    run_experiment(spec, _options(store=store))
    groups: List[Dict[str, Any]] = []
    for path in sorted(store.root.glob("*/*.json")):
        # A chunk's records name their cells; a per-cell record does not.
        records = json.loads(path.read_bytes())["results"]
        if "cell" in records[0]:
            groups.append({
                "stream": f"{path.parent.name}/{path.stem}",
                "cells": len(records),
            })
    return {
        "cache_paths": [
            cache._path(cell.experiment, cell.key)
            .relative_to(cache.root).as_posix()
            for cell in cells
        ],
        "stream_digests": [
            store.stream_path(cell.experiment, cell.key).stem
            for cell in cells
        ],
        "group_streams": groups,
    }


def _cell_bits(name: str) -> List[Dict[str, Dict[str, Any]]]:
    """Every cell of *name* at full size, seed 1, column by column."""
    spec = get_spec(name)
    options = ExperimentOptions(seed=1)
    assert spec.build_cells is not None
    cells = []
    for result in run_cells(spec.build_cells(options, spec.sizes(options))):
        metrics = result if isinstance(result, SystemMetrics) else result.metrics
        rows = {
            f"Rel{index + 1}": row
            for index, row in enumerate(metrics.releases)
        }
        rows["System"] = metrics.system
        cells.append({
            label: {
                "CR": row.counts.correct,
                "EER": row.counts.evident,
                "NER": row.counts.non_evident,
                "NRDT": row.no_response,
                "total_requests": row.total_requests,
                "met_sum": row._time_sum.hex(),
                "met_count": row._time_count,
            }
            for label, row in rows.items()
        })
    return cells


def _golden_text(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_bytes().decode("utf-8")


@pytest.fixture(scope="module")
def golden_addresses() -> Dict[str, Any]:
    return json.loads(ADDRESSES.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden_cells() -> Dict[str, Any]:
    return json.loads(CELLS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", GOLDEN_SPECS)
class TestGolden:
    def test_cold_render_is_byte_identical(self, name):
        text = run_experiment(get_spec(name), _options()).text
        assert text == _golden_text(name)

    def test_warm_render_is_byte_identical(self, name, tmp_path):
        spec = get_spec(name)
        run_experiment(spec, _options(cache=ResultCache(tmp_path)))
        registry = MetricsRegistry()
        warm = run_experiment(spec, _options(
            cache=ResultCache(tmp_path, metrics=registry),
            metrics=registry,
        ))
        counters = registry.as_dict()["counters"]
        assert counters.get("cache.miss", 0) == 0
        assert counters["cache.hit"] == warm.cells
        assert warm.text == _golden_text(name)

    def test_addresses_unchanged(self, name, tmp_path, golden_addresses):
        assert _addresses(name, tmp_path) == golden_addresses[name]

    def test_full_size_cells_bit_identical(self, name, golden_cells):
        assert _cell_bits(name) == golden_cells[name]


def record() -> None:
    """Write every fixture from the current tree."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    addresses = {}
    for name in GOLDEN_SPECS:
        text = run_experiment(get_spec(name), _options()).text
        (GOLDEN_DIR / f"{name}.txt").write_bytes(text.encode("utf-8"))
        with tempfile.TemporaryDirectory() as tmp:
            addresses[name] = _addresses(name, Path(tmp))
    ADDRESSES.write_text(
        json.dumps(addresses, indent=1) + "\n", encoding="utf-8"
    )
    CELLS.write_text(
        json.dumps({name: _cell_bits(name) for name in GOLDEN_SPECS}, indent=1)
        + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    record()
