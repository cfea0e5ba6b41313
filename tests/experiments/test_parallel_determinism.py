"""Determinism guarantees of the parallel experiment runtime.

The invariant load-bearing for trusting ``--jobs N``: a grid run with
``jobs=N`` is bit-identical to ``jobs=1`` (each cell derives its own
root seed, so scheduling cannot reorder draws).  The grids run on the
event kernel, whose cells take the per-cell path and so reach the
process pool.  That a demand script equals its scalar reference draws
is pinned in ``tests/runtime/test_sampling.py``.
"""

from repro.experiments.event_sim import release_pair_cells
from repro.experiments.table5 import TABLE5_SPEC
from repro.experiments.table6 import TABLE6_SPEC
from repro.pipeline import ExperimentOptions, run_experiment
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import run_cells


def _run(spec, jobs, cache=None):
    """The spec's full grid at 120 requests per cell, on the event kernel."""
    options = ExperimentOptions(
        seed=11, requests=120, jobs=jobs, cache=cache, backend="event"
    )
    return run_experiment(spec, options).value.results


def _table_rows(results):
    """Every number of every cell, in grid order."""
    return [
        (
            result.run,
            result.timeout,
            result.metrics.releases[0].as_row(),
            result.metrics.releases[1].as_row(),
            result.metrics.system.as_row(),
        )
        for result in results
    ]


class TestJobsBitIdentical:
    def test_table5_jobs4_matches_sequential(self):
        sequential = _run(TABLE5_SPEC, jobs=1)
        parallel = _run(TABLE5_SPEC, jobs=4)
        assert _table_rows(sequential) == _table_rows(parallel)

    def test_table6_jobs4_matches_sequential(self):
        sequential = _run(TABLE6_SPEC, jobs=1)
        parallel = _run(TABLE6_SPEC, jobs=4)
        assert _table_rows(sequential) == _table_rows(parallel)

    def test_cached_rerun_matches_fresh(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fresh = _run(TABLE5_SPEC, jobs=2, cache=cache)
        assert cache.entry_count() == 12
        replayed = _run(TABLE5_SPEC, jobs=1, cache=cache)
        assert _table_rows(fresh) == _table_rows(replayed)

    def test_different_seeds_differ(self):
        def one_cell(seed):
            return run_cells(release_pair_cells(
                "table5", "correlated", seed=seed, requests=120,
                runs=(1,), timeouts=(1.5,),
            ))

        assert _table_rows(one_cell(11)) != _table_rows(one_cell(12))
