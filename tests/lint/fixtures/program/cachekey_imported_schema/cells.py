# repro-lint: module=repro.experiments.minicells
"""REPRO201 fixture: a cell builder and the schema constant it keys.

The spec that uses them lives in ``exp.py`` and imports the constant,
which lacks the ``backend`` field the keys carry.  Parse-only: never
imported.
"""

from repro.runtime.parallel import CellSpec

SCHEMA = ("run", "seed")


def simulate(run, seed, backend):
    return (run, seed, backend)


def build_cells(options):
    return [
        CellSpec(
            experiment="mini",
            fn=simulate,
            kwargs=dict(run=run, seed=options.seed, backend=options.backend),
            key=dict(run=run, seed=options.seed, backend=options.backend),
        )
        for run in range(options.runs)
    ]
