"""Experiment: Table 5 — simulation with positively correlated releases.

Four runs (Table 3 marginals + Table 4 conditionals, correlation 0.9 down
to 0.4) x three TimeOuts (1.5 / 2.0 / 3.0 s), 10,000 requests each,
through the full event-driven managed-upgrade stack.

The grid is declared by
:func:`~repro.experiments.event_sim.release_pair_spec`, the one
declaration Tables 5 and 6 share, so the unified engine supplies the
process pool, the result cache, per-cell tracing and metrics: ``jobs=N``
is bit-identical to ``jobs=1`` because every run derives its own root
seed from the grid seed via ``SeedSequenceFactory.child_seed``.
"""

from repro.experiments.event_sim import release_pair_spec
from repro.pipeline import register

TABLE5_LABEL = "Table 5 (positive correlation between release failures)"

TABLE5_SPEC = register(release_pair_spec(
    "table5",
    "correlated",
    label=TABLE5_LABEL,
    title="Table 5: event-driven simulation, correlated releases (§5.2)",
))
