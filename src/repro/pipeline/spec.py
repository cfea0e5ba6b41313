"""Declarative experiment descriptions (:class:`ExperimentSpec`).

Every workload in this repository — the paper's Tables 2/5/6, the
Fig-7/8 percentile curves, the calibration and robustness ablations —
is structurally the same thing: a *grid* of independent Monte-Carlo
cells, a per-cell seed derivation, a reduction of cell results into a
result object, and a renderer.  An :class:`ExperimentSpec` captures
that structure declaratively:

* ``build_cells`` produces the grid as
  :class:`~repro.runtime.parallel.CellSpec` values (parameter product,
  per-cell child seeds, cache keys, per-cell trace paths);
* ``reduce`` folds the cell results (in grid order) into the
  experiment's result object;
* ``render`` turns that object into the CLI's textual output;
* ``full_sizes`` / ``fast_sizes`` are the declarative size knobs — the
  engine merges ``fast_sizes`` over ``full_sizes`` when ``--fast`` is
  given and applies the uniform ``--requests`` override to
  ``workload_key``;
* ``cache_schema`` names the fields every cacheable cell key must carry
  (enforced by the engine, so key drift is caught at build time);
* composite experiments that orchestrate other experiments (the
  markdown report) supply ``composite`` instead of a grid, and run
  each registered spec they compose through ``run_experiment`` under
  their own options.

Specs are registered with :func:`repro.pipeline.registry.register` and
executed by :func:`repro.pipeline.engine.run_experiment`, which applies
the process pool, result cache, run store, tracing and metrics
uniformly — an experiment module never talks to the runtime directly:
it declares cells and never runs them (``run_cells`` has one caller,
the engine).
"""

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import CellSpec
from repro.store.log import RunStore


def check_seed(seed: int) -> None:
    """Reject a negative root seed.

    numpy seed sequences take non-negative integers only, so a negative
    ``--seed`` is a :class:`ConfigurationError` naming ``seed``, raised
    before any cell is built or drawn.
    """
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed!r}")


def check_requests(requests: Optional[int]) -> None:
    """Reject a ``--requests`` override below one request.

    ``None`` keeps each spec's own size.  A value below 1 is a
    :class:`ConfigurationError` naming ``requests``, raised before any
    cell is built or drawn.
    """
    if requests is not None and requests < 1:
        raise ConfigurationError(
            f"requests must be >= 1 (or unset for the spec's size), "
            f"got {requests!r}"
        )


@dataclass(frozen=True)
class ExperimentOptions:
    """Uniform run options, shared by every experiment.

    One instance carries everything the CLI flags express: the root
    seed (at least 0, see :func:`check_seed`), the ``--fast`` switch,
    the latency-profile name, the worker count, the result cache
    (``None`` = disabled), the uniform workload override
    (``--requests``; at least 1 when given, see :func:`check_requests`),
    the per-cell trace directory, the metrics registry, the report
    output path and the demand-resolution backend (``--backend``: ``event`` threads every
    demand through the event kernel, ``columnar`` resolves whole cells
    as array programs — bit-identical across the parallel §4.2
    operating modes and fixed-order sequential mode, any release count
    — and ``auto``, the default, picks columnar everywhere except the
    event-only cases: tracing, non-paper adjudicators, retry and
    random-order sequential mode; see :mod:`repro.runtime.columnar`).  Grids whose cells take a backend
    carry it in their cache keys, so the two paths never alias.

    ``store`` attaches a :class:`~repro.store.log.RunStore` (the CLI's
    ``--store PATH``): each completed cell, or batched chunk, commits
    its result as one file as it finishes, and already-committed cells
    are served from those files, which is what makes interrupted grids
    resumable.

    The engine always fuses cells that declare a
    :class:`~repro.runtime.parallel.BatchSpec` into group executions —
    one shared demand-script arena resolved by the release-major kernel
    for Tables 5/6, one posterior plan for an assessment grid, and one
    fsync'd store commit per group — bit-identical to running each cell
    alone.
    """

    seed: int
    fast: bool = False
    profile: str = "paper"
    jobs: int = 1
    cache: Optional[ResultCache] = None
    requests: Optional[int] = None
    trace_dir: Optional[str] = None
    metrics: Optional[MetricsRegistry] = None
    output: Optional[str] = None
    backend: str = "auto"
    store: Optional[RunStore] = None

    def __post_init__(self) -> None:
        check_seed(self.seed)
        check_requests(self.requests)


#: Cell kwargs that carry observability plumbing (tracers, metric
#: registries, per-cell trace paths) rather than cell parameters.  They
#: never influence a cell's numeric result, so they are exempt from the
#: cache-key completeness contract: every *other* kwarg must be covered
#: by the cell key / ``cache_schema``.  The whole-program analyzer
#: (REPRO201) applies the same exemption statically; its copy of this
#: tuple lives in ``repro.lint.config`` (lint never imports analyzed
#: code) and a sync test pins the two together.
CELL_OBSERVABILITY_PARAMS: Tuple[str, ...] = (
    "metrics",
    "trace_path",
    "trace_cell",
    "trace_dir",
    "tracer",
)

#: Builds the grid: (options, resolved sizes) -> cells.
CellBuilder = Callable[
    [ExperimentOptions, Dict[str, Any]], Sequence[CellSpec]
]
#: Folds cell results (grid order) into the experiment result object.
Reducer = Callable[[List[Any], ExperimentOptions], Any]
#: Renders the result object as the CLI's textual output.
Renderer = Callable[[Any, ExperimentOptions], str]
#: Escape hatch for composite experiments (the markdown report).
CompositeRunner = Callable[[ExperimentOptions], Any]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: grid + reduce + render + size knobs.

    Attributes
    ----------
    name:
        Registry key and CLI subcommand name.
    title:
        One-line description shown in the CLI listing.
    build_cells / reduce / render:
        The grid pipeline (see module docstring).  ``render`` is always
        required; ``build_cells``/``reduce`` are replaced by
        ``composite`` for orchestrating experiments.
    composite:
        Runs the whole experiment itself (e.g. the report, which runs
        other registered specs); mutually exclusive with the grid
        hooks.  It receives the run's options and passes them on to
        every spec it runs, so composite experiments honour every run
        option uniformly.
    full_sizes / fast_sizes:
        Declarative size knobs; ``fast_sizes`` overlays ``full_sizes``
        under ``--fast``.
    workload_key:
        The size knob the uniform ``--requests N`` override rewrites
        (``requests``, ``samples``, ``total_demands``, ...); ``None``
        means the override is accepted but has no effect.
    cache_schema:
        Field names every cacheable cell key must consist of; the
        engine rejects grids whose keys drift from the schema.
    """

    name: str
    title: str
    build_cells: Optional[CellBuilder] = None
    reduce: Optional[Reducer] = None
    render: Optional[Renderer] = None
    composite: Optional[CompositeRunner] = None
    full_sizes: Mapping[str, Any] = field(default_factory=dict)
    fast_sizes: Mapping[str, Any] = field(default_factory=dict)
    workload_key: Optional[str] = None
    cache_schema: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment spec needs a name")
        if self.render is None:
            raise ConfigurationError(
                f"experiment {self.name!r} needs a render hook"
            )
        if self.composite is None:
            if self.build_cells is None or self.reduce is None:
                raise ConfigurationError(
                    f"experiment {self.name!r} needs build_cells and "
                    f"reduce (or a composite runner)"
                )
        elif self.build_cells is not None or self.reduce is not None:
            raise ConfigurationError(
                f"experiment {self.name!r} is composite; it cannot also "
                f"define grid hooks"
            )
        unknown = set(self.fast_sizes) - set(self.full_sizes)
        if unknown:
            raise ConfigurationError(
                f"experiment {self.name!r} fast_sizes override unknown "
                f"size knobs: {sorted(unknown)}"
            )
        if (
            self.workload_key is not None
            and self.workload_key not in self.full_sizes
        ):
            raise ConfigurationError(
                f"experiment {self.name!r} workload_key "
                f"{self.workload_key!r} is not a declared size knob"
            )

    @property
    def is_composite(self) -> bool:
        """True for orchestrating experiments with no grid of their own."""
        return self.composite is not None

    @property
    def in_all(self) -> bool:
        """Whether ``repro-experiments all`` runs this experiment: every
        grid experiment does; a composite (the report, which runs the
        others) does not, so ``all`` never recurses."""
        return self.composite is None

    def sizes(self, options: ExperimentOptions) -> Dict[str, Any]:
        """Resolve the size knobs for one run.

        ``fast_sizes`` overlays ``full_sizes`` when ``options.fast``;
        an explicit ``options.requests`` then rewrites the
        ``workload_key`` knob.  The result is what ``build_cells``
        receives as its second argument.
        """
        sizes = dict(self.full_sizes)
        if options.fast:
            sizes.update(self.fast_sizes)
        if options.requests is not None and self.workload_key is not None:
            sizes[self.workload_key] = options.requests
        return sizes
