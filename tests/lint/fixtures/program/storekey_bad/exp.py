# repro-lint: module=repro.experiments.mini_store
"""REPRO201 regression fixture: run-store key drift.

Run-store streams are keyed exactly like the result cache —
``(experiment, cell key)`` — so a cell key missing a swept kwarg
aliases *committed streams* as well as cache entries: a resumed grid
would replay the wrong cell's committed result.  Here the
builder sweeps ``sampling`` (which selects the computation path) but
the key omits it, and the run wires the grid through a
:class:`~repro.store.log.RunStore`.  Parse-only: never imported.
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
                    ),
                )
            )
    return cells


def run(options):
    store = RunStore(options.store_root)
    return run_cells(build_cells(options), store=store)
