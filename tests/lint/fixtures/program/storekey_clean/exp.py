# repro-lint: module=repro.experiments.mini_store
"""Clean twin of ``storekey_bad``: the stream key is complete.

Every swept kwarg the cell computes from — including ``sampling`` —
appears in the cell key, so cache entries and run-store streams
never alias across the sweep.  Parse-only: never imported.
"""

from repro.runtime.parallel import CellSpec, run_cells
from repro.store.log import RunStore


def simulate(run, seed, sampling):
    return (run, seed, sampling)


def build_cells(options):
    cells = []
    for run in range(options.runs):
        for sampling in ("vectorized", "sequential"):
            cells.append(
                CellSpec(
                    experiment="mini_store",
                    fn=simulate,
                    kwargs=dict(
                        run=run,
                        seed=options.seed,
                        sampling=sampling,
                    ),
                    key=dict(
                        run=run,
                        seed=options.seed,
                        sampling=sampling,
                    ),
                )
            )
    return cells


def run(options):
    store = RunStore(options.store_root)
    return run_cells(build_cells(options), store=store)
