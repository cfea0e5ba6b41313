"""The one engine every experiment runs through.

:func:`run_experiment` takes a registered
:class:`~repro.pipeline.spec.ExperimentSpec` plus uniform
:class:`~repro.pipeline.spec.ExperimentOptions` and applies the whole
runtime stack in one place:

* size resolution (``--fast`` overlays, the ``--requests`` override);
* grid construction via the spec's ``build_cells`` hook
  (:func:`build_grid`, which a caller can also run ahead of a run to
  refuse sizes before any cell executes);
* cache-key schema validation (cacheable cells must carry exactly the
  fields the spec declares — key drift would silently fork the cache);
* fan-out through :func:`~repro.runtime.parallel.run_cells`, which
  gives every experiment the process pool, the on-disk result cache,
  the run store (per-cell and per-chunk commits + resume) and the
  pool/cache metrics;
* reduction and rendering.

Because cells derive their randomness from explicit per-cell seeds, a
run is bit-identical for any ``jobs`` value, and a cached replay equals
a fresh run — the engine is what makes those guarantees *uniform*
instead of per-experiment folklore.
"""

from dataclasses import dataclass
from typing import Any, List, Sequence

from repro.common.errors import ConfigurationError
from repro.pipeline.spec import ExperimentOptions, ExperimentSpec
from repro.runtime.parallel import CellSpec, run_cells


@dataclass(frozen=True)
class ExperimentOutcome:
    """What one engine run produced.

    Attributes
    ----------
    spec / options:
        The experiment and the options it ran under.
    value:
        The reduced result object (table, curves, report, ...).
    text:
        The rendered textual output the CLI prints.
    cells:
        Number of grid cells executed or replayed (0 for composites).
    """

    spec: ExperimentSpec
    options: ExperimentOptions
    value: Any
    text: str
    cells: int = 0


def validate_cells(
    spec: ExperimentSpec, cells: Sequence[CellSpec]
) -> None:
    """Enforce the spec's cache-key schema over a built grid.

    Every cacheable cell must carry exactly the declared fields; traced
    cells opt out with ``key=None`` (a cache hit would skip simulation
    and leave an empty trace), which is always allowed.
    """
    schema = frozenset(spec.cache_schema)
    for index, cell in enumerate(cells):
        if cell.key is None:
            continue
        if not spec.cache_schema:
            raise ConfigurationError(
                f"experiment {spec.name!r} built a cacheable cell but "
                f"declares no cache_schema"
            )
        fields = frozenset(cell.key)
        if fields != schema:
            raise ConfigurationError(
                f"experiment {spec.name!r} cell {index} key fields "
                f"{sorted(fields)} do not match the declared "
                f"cache_schema {sorted(schema)}"
            )


def build_grid(
    spec: ExperimentSpec, options: ExperimentOptions
) -> List[CellSpec]:
    """The grid *spec* runs under *options*, checked against its schema.

    Building runs no cell, so a caller can build a grid ahead of running
    it to refuse sizes the spec cannot use before any cell executes.
    """
    if spec.build_cells is None:
        raise ConfigurationError(
            f"experiment {spec.name!r} has no grid hooks"
        )
    cells = list(spec.build_cells(options, spec.sizes(options)))
    validate_cells(spec, cells)
    return cells


def run_experiment(
    spec: ExperimentSpec, options: ExperimentOptions
) -> ExperimentOutcome:
    """Run one experiment end to end under the uniform runtime."""
    if spec.composite is not None:
        value = spec.composite(options)
        cell_count = 0
    else:
        if spec.reduce is None:  # unreachable after __post_init__; typed-core
            raise ConfigurationError(
                f"experiment {spec.name!r} has no grid hooks"
            )
        cells = build_grid(spec, options)
        results = run_cells(
            cells,
            jobs=options.jobs,
            cache=options.cache,
            metrics=options.metrics,
            store=options.store,
        )
        value = spec.reduce(results, options)
        cell_count = len(cells)
    if spec.render is None:  # unreachable after __post_init__; typed-core
        raise ConfigurationError(
            f"experiment {spec.name!r} has no render hook"
        )
    text = spec.render(value, options)
    return ExperimentOutcome(
        spec=spec,
        options=options,
        value=value,
        text=text,
        cells=cell_count,
    )
