"""Vectorised per-demand sampling scripts for the event-driven runs.

The event-driven Table-5/6 cells used to make ~4 scalar numpy RNG calls
per request (joint outcome pair, shared T1, one T2 per release) — each
call paying numpy's per-call overhead, which dominated cell wall-time.
This module pre-draws all per-demand randomness for a cell in numpy
blocks ("a demand script") and exposes drop-in adapters that replay the
script through the existing :class:`~repro.simulation.distributions.
Distribution` / :class:`~repro.simulation.correlation.JointOutcomeModel`
interfaces, so the middleware and endpoints are untouched.

Stream-order preservation: every block draw is bit-identical to the
scalar reference draws on the same named stream (see the
``sample_many`` / ``sample_many_scalar`` contracts), so a script equals
the one the scalar reference methods would draw value by value —
asserted by the sampling tests.

Streams are derived per leg from the cell's
:class:`~repro.common.seeding.SeedSequenceFactory`:

* ``script/outcomes`` — the joint (or chained) outcome draws;
* ``script/t1`` — the shared demand-difficulty component;
* ``script/t2/<k>`` — release *k*'s own latency component.
"""

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError, ValidationError
from repro.common.seeding import SeedSequenceFactory
from repro.simulation.correlation import (
    ChainedOutcomeModel,
    JointOutcomeModel,
    OutcomeDistribution,
)
from repro.simulation.distributions import Distribution
from repro.simulation.outcomes import OUTCOME_ORDER, Outcome


class ScriptedDistribution(Distribution):
    """Replays a pre-drawn value block through the Distribution protocol.

    ``sample`` pops the next scripted value (the generator argument is
    ignored — the randomness was consumed when the script was built).
    Exhausting the script raises :class:`SimulationError` naming the
    stream and the cursor position rather than silently re-drawing, so a
    consumer miscount cannot corrupt a run and is diagnosable in one
    read.
    """

    def __init__(
        self,
        values: np.ndarray,
        base: Optional[Distribution] = None,
        name: str = "script",
    ):
        self._values = np.asarray(values, dtype=float)
        # A plain-list mirror: per-event pops return Python floats without
        # paying numpy scalar-indexing overhead on the hot path.
        self._items = self._values.tolist()
        self._cursor = 0
        self._base = base
        self._name = name

    def sample(self, rng: np.random.Generator) -> float:
        cursor = self._cursor
        if cursor >= len(self._items):
            raise SimulationError(
                f"demand script stream {self._name!r} exhausted: draw "
                f"requested at cursor {cursor} of {len(self._items)}"
            )
        self._cursor = cursor + 1
        return self._items[cursor]

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        cursor = self._cursor
        if cursor + size > self._values.shape[0]:
            raise SimulationError(
                f"demand script stream {self._name!r} exhausted: {size} "
                f"draws requested at cursor {cursor} of "
                f"{self._values.shape[0]}"
            )
        self._cursor = cursor + size
        return self._values[cursor:cursor + size]

    @property
    def remaining(self) -> int:
        """Scripted values not yet consumed."""
        return self._values.shape[0] - self._cursor

    @property
    def mean(self) -> float:
        if self._base is not None:
            return self._base.mean
        finite = self._values[np.isfinite(self._values)]
        return float(finite.mean()) if finite.size else float("nan")

    def __repr__(self) -> str:
        return (
            f"ScriptedDistribution(name={self._name!r}, "
            f"n={self._values.shape[0]}, "
            f"cursor={self._cursor}, base={self._base!r})"
        )


class ScriptedJointOutcomeModel(JointOutcomeModel):
    """Replays pre-drawn joint outcome tuples demand by demand."""

    def __init__(
        self,
        tuples: Sequence[Tuple[Outcome, ...]],
        base: Optional[JointOutcomeModel] = None,
        name: str = "script/outcomes",
    ):
        self._tuples = list(tuples)
        self._cursor = 0
        self._base = base
        self._name = name

    def sample_tuple(
        self, rng: np.random.Generator, count: int
    ) -> Tuple[Outcome, ...]:
        cursor = self._cursor
        if cursor >= len(self._tuples):
            raise SimulationError(
                f"joint outcome script stream {self._name!r} exhausted: "
                f"draw requested at cursor {cursor} of {len(self._tuples)}"
            )
        row = self._tuples[cursor]
        if len(row) != count:
            raise ValidationError(
                f"script covers {len(row)} releases, got {count}"
            )
        self._cursor = cursor + 1
        return row

    def sample_pair(self, rng: np.random.Generator) -> Tuple[Outcome, Outcome]:
        first, second = self.sample_tuple(rng, 2)
        return first, second

    def marginal_first(self) -> OutcomeDistribution:
        if self._base is None:
            raise ValidationError("scripted joint model has no base model")
        return self._base.marginal_first()

    def marginal_second(self) -> OutcomeDistribution:
        if self._base is None:
            raise ValidationError("scripted joint model has no base model")
        return self._base.marginal_second()


@dataclass
class DemandScript:
    """All pre-drawn randomness for one simulation cell.

    Attributes
    ----------
    t1:
        Shared demand-difficulty block, one entry per request.
    t2:
        One latency block per release.
    outcome_codes:
        The pre-drawn outcome matrix as integer codes (indices into
        :data:`~repro.simulation.outcomes.OUTCOME_ORDER`), shaped
        ``(requests, releases)``.  This is the raw form the columnar
        backend consumes; None when the cell has no joint outcome
        model.

    The event-path adapters replay the same matrix as
    :class:`Outcome` tuples via :attr:`outcomes`, materialized from
    the codes on first access — the columnar backend never pays for
    that view.
    """

    requests: int
    t1: np.ndarray
    t2: List[np.ndarray]
    outcome_codes: Optional[np.ndarray] = None
    _outcomes: Optional[List[Tuple[Outcome, ...]]] = None

    @property
    def outcomes(self) -> Optional[List[Tuple[Outcome, ...]]]:
        """The outcome matrix as :class:`Outcome` tuples, lazily built."""
        if self._outcomes is None and self.outcome_codes is not None:
            self._outcomes = [
                tuple(OUTCOME_ORDER[code] for code in row)
                for row in self.outcome_codes.tolist()
            ]
        return self._outcomes

    def joint_model(
        self, base: Optional[JointOutcomeModel] = None
    ) -> Optional[ScriptedJointOutcomeModel]:
        """Scripted stand-in for the cell's joint outcome model."""
        if self.outcomes is None:
            return None
        return ScriptedJointOutcomeModel(
            self.outcomes, base=base, name="script/outcomes"
        )

    def demand_difficulty(
        self, base: Optional[Distribution] = None
    ) -> ScriptedDistribution:
        """Scripted stand-in for the shared T1 distribution."""
        return ScriptedDistribution(self.t1, base=base, name="script/t1")

    def release_latency(
        self, index: int, base: Optional[Distribution] = None
    ) -> ScriptedDistribution:
        """Scripted stand-in for release *index*'s T2 distribution."""
        return ScriptedDistribution(
            self.t2[index], base=base, name=f"script/t2/{index}"
        )


@dataclass
class ScriptArena:
    """Shared demand-script storage for a batch of cells.

    One ``(scripts, rows)`` slab per randomness leg — shared T1, one T2
    slab per release, and a ``(scripts, rows, releases)`` outcome code
    block — holding each *distinct* script once, and a per-cell
    ``row_index``: cell *c* reads slab row ``row_index[c]``.  Cells
    that observe one workload (the three TimeOut cells of a Table 5/6
    run) share a row.  Each row is drawn from its first cell's own
    :class:`SeedSequenceFactory` streams in exactly
    :func:`build_demand_script`'s order, so :meth:`script` is a
    zero-copy view that is bit-identical to the script that cell would
    have built alone (asserted by the batched equivalence suite).

    ``cells`` counts cells, ``scripts`` the slab rows actually drawn,
    and ``rows`` is the per-script length: each cell's demand count.
    """

    t1: np.ndarray
    t2: List[np.ndarray]
    row_index: np.ndarray
    outcome_codes: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        index = np.asarray(self.row_index, dtype=np.intp)
        scripts = int(self.t1.shape[0])
        if (
            index.ndim != 1
            or not index.size
            or int(index.min()) < 0
            or int(index.max()) >= scripts
        ):
            raise ValidationError(
                f"row index must map every cell to one of {scripts} "
                f"script rows: {index.tolist()!r}"
            )
        self.row_index = index

    @property
    def cells(self) -> int:
        """Number of cells the arena serves."""
        return int(self.row_index.shape[0])

    @property
    def scripts(self) -> int:
        """Number of distinct scripts (slab rows) drawn."""
        return int(self.t1.shape[0])

    @property
    def rows(self) -> int:
        """Scripted rows per script."""
        return int(self.t1.shape[1])

    def script(self, index: int) -> DemandScript:
        """Cell *index*'s demand script as views into the shared slabs."""
        if not 0 <= index < self.cells:
            raise ValidationError(
                f"arena holds {self.cells} cells, no index {index!r}"
            )
        row = int(self.row_index[index])
        return DemandScript(
            requests=self.rows,
            t1=self.t1[row],
            t2=[slab[row] for slab in self.t2],
            outcome_codes=(
                None if self.outcome_codes is None
                else self.outcome_codes[row]
            ),
        )


def build_demand_script_arena(
    joint_models: Sequence[Optional[JointOutcomeModel]],
    demand_difficulty: Distribution,
    release_latencies: Sequence[Distribution],
    requests: int,
    seeds: Sequence[SeedSequenceFactory],
    script_keys: Sequence[Hashable],
) -> ScriptArena:
    """Pre-draw a whole batch of cells into one shared script arena.

    ``joint_models[c]`` and ``seeds[c]`` belong to cell *c*; the shared
    *demand_difficulty* / *release_latencies* distributions are the
    group's common workload shape (cells differing there cannot share an
    arena).  ``script_keys[c]`` names cell *c*'s script: cells with
    equal keys share one slab row, drawn once from the first such
    cell's factory and joint model, so the caller must give equal keys
    only to cells whose scripts are equal (same root seed, same joint
    model), such as the TimeOut cells of one Table 5/6 run.  Per row,
    the draw order and named streams are exactly
    :func:`build_demand_script`'s (``script/outcomes``, ``script/t1``,
    ``script/t2/<k>``), and each ``sample_many`` block lands in the slab
    row unchanged — so ``arena.script(c)`` is bit-identical to the
    standalone script.  The slabs are read-only once drawn: a resolver
    writing into a shared row raises instead of corrupting the cells
    that share it.
    """
    if requests <= 0:
        raise ValidationError(f"requests must be > 0: {requests!r}")
    cells = len(seeds)
    if cells == 0:
        raise ValidationError("arena needs at least one cell")
    if len(joint_models) != cells:
        raise ValidationError(
            f"{len(joint_models)} joint models for {cells} cells"
        )
    if len(script_keys) != cells:
        raise ValidationError(
            f"{len(script_keys)} script keys for {cells} cells"
        )
    with_joint = [model is not None for model in joint_models]
    if any(with_joint) and not all(with_joint):
        raise ValidationError(
            "arena cells must all have a joint model or all have none"
        )
    row_of: Dict[Hashable, int] = {}
    firsts: List[int] = []
    row_index = np.empty(cells, dtype=np.intp)
    for c, key in enumerate(script_keys):
        if key not in row_of:
            row_of[key] = len(firsts)
            firsts.append(c)
        row_index[c] = row_of[key]
    scripts = len(firsts)
    releases = len(release_latencies)
    t1 = np.empty((scripts, requests), dtype=np.float64)
    t2 = [np.empty((scripts, requests), dtype=np.float64) for _ in range(releases)]
    codes = (
        np.empty((scripts, requests, releases), dtype=np.int64)
        if all(with_joint) else None
    )
    for row, c in enumerate(firsts):
        factory = seeds[c]
        if codes is not None:
            model = joint_models[c]
            assert model is not None
            codes[row] = _outcome_matrix(
                model, factory.generator("script/outcomes"), requests, releases,
            )
        t1[row] = demand_difficulty.sample_many(
            factory.generator("script/t1"), requests
        )
        for j, latency in enumerate(release_latencies):
            t2[j][row] = latency.sample_many(
                factory.generator(f"script/t2/{j}"), requests
            )
    for array in (t1, *t2, row_index):
        array.flags.writeable = False
    if codes is not None:
        codes.flags.writeable = False
    return ScriptArena(
        t1=t1, t2=t2, row_index=row_index, outcome_codes=codes,
    )


def _outcome_matrix(
    joint_model: JointOutcomeModel,
    rng: np.random.Generator,
    requests: int,
    releases: int,
) -> np.ndarray:
    """Draw the per-demand outcome codes for *releases* releases.

    Returns the raw ``(requests, releases)`` code matrix the columnar
    backend consumes; the :class:`Outcome` tuples the event-path
    adapters replay are the same matrix viewed through
    :attr:`DemandScript.outcomes`, materialized only when that path
    actually runs.
    """
    if releases == 2:
        first_idx, second_idx = joint_model.sample_pairs(rng, requests)
        codes = np.stack(
            [
                np.asarray(first_idx, dtype=np.int64),
                np.asarray(second_idx, dtype=np.int64),
            ],
            axis=1,
        )
    elif isinstance(joint_model, ChainedOutcomeModel):
        chain = joint_model.sample_chain(rng, requests, releases)
        codes = np.asarray(chain, dtype=np.int64).reshape(requests, releases)
    else:
        raise ValidationError(
            f"{type(joint_model).__name__} cannot script {releases} releases"
        )
    return codes


def build_demand_script(
    joint_model: Optional[JointOutcomeModel],
    demand_difficulty: Distribution,
    release_latencies: Sequence[Distribution],
    requests: int,
    seeds: SeedSequenceFactory,
    draws: Optional[int] = None,
) -> DemandScript:
    """Pre-draw one cell's randomness from the factory's script streams.

    Each leg is drawn as one numpy block, bit-identical to the scalar
    reference draws (``*_scalar``) on the same stream by the
    ``sample_many`` contracts.

    *draws* over-provisions the script beyond *requests* rows (retry
    cells consume one row per middleware attempt, up to
    ``requests * max_attempts``); the scripted adapters tolerate unused
    leftovers, so over-provisioning never changes what a run consumes.
    """
    if requests <= 0:
        raise ValidationError(f"requests must be > 0: {requests!r}")
    if draws is not None:
        if draws < requests:
            raise ValidationError(
                f"draws must cover requests: {draws!r} < {requests!r}"
            )
        requests = int(draws)
    releases = len(release_latencies)
    outcome_codes = None
    if joint_model is not None:
        outcome_codes = _outcome_matrix(
            joint_model,
            seeds.generator("script/outcomes"),
            requests,
            releases,
        )
    t1 = demand_difficulty.sample_many(seeds.generator("script/t1"), requests)
    t2 = [
        latency.sample_many(seeds.generator(f"script/t2/{index}"), requests)
        for index, latency in enumerate(release_latencies)
    ]
    return DemandScript(
        requests=requests,
        t1=t1,
        t2=t2,
        outcome_codes=outcome_codes,
    )
