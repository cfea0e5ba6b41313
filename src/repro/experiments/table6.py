"""Experiment: Table 6 — simulation with independent release failures.

Identical grid to Table 5 but the two releases' outcomes are sampled
independently from their Table 3 marginals — the (implausible, per the
paper) independence reference point under which "fault-tolerance works":
the adjudicated system beats both releases on reliability.

Both tables are declared by
:func:`~repro.experiments.event_sim.release_pair_spec` and differ only
in the ``joint`` outcome-model family.
"""

from repro.experiments.event_sim import release_pair_spec
from repro.pipeline import register

TABLE6_LABEL = "Table 6 (independence of release failures)"

TABLE6_SPEC = register(release_pair_spec(
    "table6",
    "independent",
    label=TABLE6_LABEL,
    title="Table 6: event-driven simulation, independent releases (§5.2)",
))
