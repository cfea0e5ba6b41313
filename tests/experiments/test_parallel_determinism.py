"""Determinism guarantees of the parallel experiment runtime.

The invariant load-bearing for trusting ``--jobs N``: a grid run with
``jobs=N`` is bit-identical to ``jobs=1`` (each cell derives its own
root seed, so scheduling cannot reorder draws).  That a demand script
equals its scalar reference draws is pinned in
``tests/runtime/test_sampling.py``.
"""

from repro.experiments.table5 import run_table5
from repro.experiments.table6 import run_table6
from repro.runtime.cache import ResultCache


def _table_rows(table):
    """Every number of every cell, in grid order."""
    return [
        (
            result.run,
            result.timeout,
            result.metrics.releases[0].as_row(),
            result.metrics.releases[1].as_row(),
            result.metrics.system.as_row(),
        )
        for result in table.results
    ]


class TestJobsBitIdentical:
    def test_table5_jobs4_matches_sequential(self):
        sequential = run_table5(seed=11, requests=120, jobs=1)
        parallel = run_table5(seed=11, requests=120, jobs=4)
        assert _table_rows(sequential) == _table_rows(parallel)

    def test_table6_jobs4_matches_sequential(self):
        sequential = run_table6(seed=11, requests=120, jobs=1)
        parallel = run_table6(seed=11, requests=120, jobs=4)
        assert _table_rows(sequential) == _table_rows(parallel)

    def test_cached_rerun_matches_fresh(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fresh = run_table5(seed=11, requests=120, jobs=2, cache=cache)
        assert cache.entry_count() == 12
        replayed = run_table5(seed=11, requests=120, jobs=1, cache=cache)
        assert _table_rows(fresh) == _table_rows(replayed)

    def test_different_seeds_differ(self):
        a = run_table5(seed=11, requests=120, runs=(1,), timeouts=(1.5,))
        b = run_table5(seed=12, requests=120, runs=(1,), timeouts=(1.5,))
        assert _table_rows(a) != _table_rows(b)
