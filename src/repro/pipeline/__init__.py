"""Unified experiment pipeline: declarative specs, one engine.

``repro.pipeline`` is the mediator layer between the experiment
definitions (``repro.experiments``) and the runtime
(``repro.runtime`` pool + cache, ``repro.obs`` tracing + metrics):

* :class:`~repro.pipeline.spec.ExperimentSpec` — declarative
  description of one experiment (grid builder, reducer, renderer,
  size knobs, cache-key schema);
* :class:`~repro.pipeline.spec.ExperimentOptions` — the uniform run
  options every CLI flag maps onto;
* :mod:`~repro.pipeline.registry` — module-scan registry the CLI, the
  tests and CI enumerate;
* :func:`~repro.pipeline.engine.run_experiment` — the single engine
  that applies pool, cache, tracing and metrics to every registered
  experiment.

Registering a spec is all an experiment has to do; the subcommand, the
``--jobs``/``--cache*``/``--trace``/``--metrics-json``/``--fast``/
``--requests`` flags, bit-identical parallel fan-out and cache replay
come from this package.
"""

from repro.pipeline.engine import (
    ExperimentOutcome,
    build_grid,
    run_experiment,
    validate_cells,
)
from repro.pipeline.registry import (
    discover,
    experiment_names,
    get_spec,
    register,
    registered_specs,
)
from repro.pipeline.spec import ExperimentOptions, ExperimentSpec

__all__ = [
    "ExperimentOptions",
    "ExperimentOutcome",
    "ExperimentSpec",
    "build_grid",
    "discover",
    "experiment_names",
    "get_spec",
    "register",
    "registered_specs",
    "run_experiment",
    "validate_cells",
]
