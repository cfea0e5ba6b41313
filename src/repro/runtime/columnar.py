"""Columnar demand-resolution backend: whole cells as array programs.

The event kernel resolves each demand of a grid cell by threading ~6
events through the Python heap (arrival, per-release invocations,
responses or a timeout, adjudication delivery).  Because the grids space
demands ``spacing = TimeOut + dT + 0.5`` apart, a demand is fully
adjudicated before the next one starts, so the entire cell is a pure
function of the pre-drawn :class:`~repro.runtime.sampling.DemandScript`.
This module evaluates that function as numpy array operations,
bit-identical to the event path (asserted by the cross-backend
equivalence suite, not assumed), for the three parallel §4.2 operating
modes and fixed-order sequential mode, over N releases.

Bit-identity rests on reproducing the event kernel's exact float
arithmetic, in order:

* demand *i* starts at ``fl(i * spacing)`` (``np.arange(n) * spacing``
  matches the scalar products bit for bit);
* release *k*'s execution time is ``fl(t1 + t2_k)`` and its response
  *arrives* at ``fl(invoke_time + exec)`` — a non-finite exec never
  arrives (a hang), though its script value was consumed;
* the demand timeout event is scheduled *first*, at
  ``fl(start + TimeOut)``, so it wins FIFO ties: a response is collected
  iff its absolute arrival time is **strictly** below the absolute
  cutoff (comparing ``exec < TimeOut`` would round differently);
* the recorded per-release time is ``fl(arrival − start)``, not the raw
  exec;
* collection order is (arrival time, schedule sequence) — response
  events are scheduled at demand start in release order, so arrival
  ties break toward the lower release index (the rank a stable sort
  would give, computed by pairwise comparisons);
* the system decision time is the *m*-th collected arrival (``m`` =
  every active release in max-reliability, ``min_responses`` in dynamic
  mode) when that many arrived, else the cutoff; the system row records
  ``min(fl(decision − start), TimeOut) + dT`` for every demand — except
  max-responsiveness demands answered by the first valid response,
  whose consumer-visible time is the *unclipped*
  ``fl(fl(first_valid_arrival − start) + dT)``;
* MET accumulators sum in record order via ``np.cumsum(...)[-1]``
  (strict left-to-right IEEE accumulation — ``np.sum`` is pairwise and
  drifts in the last bits);
* the paper-rule adjudicator breaks valid-result mismatches with one
  ``rng.integers(len(valid))`` draw per mismatching demand, in close
  order; bound-2 draws batch as ``rng.integers(2, size=m)`` (consumes
  the stream identically), other bounds stay scalar;
* sequential mode chains invocations at the previous arrival
  (``arr_{j+1} = fl(arr_j + fl(t1 + t2_{j+1}))``) and consumes release
  latency scripts only for releases actually invoked.

Layout.  The three parallel modes share one kernel that is
*release-major*: it holds one contiguous ``(cells, n)`` array per
release (arrival times, within-cutoff masks, outcome codes) and
combines releases with ``k − 1`` elementwise ops — no sort, no
reduction along a short release axis.  :func:`resolve_cell` runs it on
a one-cell view of its script; :func:`resolve_cell_batch` runs it over
blocks of whole cells of at most :data:`KERNEL_BLOCK_ROWS` demand rows,
which keeps every temporary in cache.  The batch's
:class:`~repro.runtime.sampling.ScriptArena` holds one ``(scripts,
rows)`` slab per leg with one row per *distinct* script (the TimeOut
cells of one Table 5/6 run share a row), so a block gathers its cells'
rows through the arena's row index — a one-cell block slices its row
as a view instead.  What does not depend on the TimeOut is prepared
once per block of script rows and reused while the next block reads
the same rows: each release's execution times ``fl(t1 + t2_k)`` and its
outcome codes narrowed to one contiguous int8 row.  At 10,000 requests
every block is one cell, so the three TimeOut cells of a Table 5/6 run
share one preparation.  The kernel writes its clipped system times and
its recorded per-release times over arrays it owns (the decision and
arrival times), so a cell's temporaries stay few.  Sequential cells run
a vectorised stage loop per cell, reading their rows through the same
index.  Both resolvers reduce a row with
:meth:`~repro.simulation.metrics.ReleaseMetrics.from_masks`: CR and NER
counted from ``collected & (code == c)`` masks, EER the remainder, MET
the ``np.cumsum`` of the collected times.  That remainder is exact only
for codes in ``0..2``, so :func:`_resolve_group` range-checks each
group's whole code block once, at full width, before any narrowing.

The *envelope* in which this equivalence is proven: a script with
outcome codes, the paper-rule adjudicator, no tracing (traces are an
event-loop artifact), no retry policy and fixed-order sequential mode.
Bounded retry (attempts interleave with later demands) and
random-order sequential mode (per-demand shuffles of the middleware
stream) run on the event kernel only: no registered grid uses either.
:func:`unsupported_reasons` is the single authority on that envelope —
``backend="auto"`` asks it whether columnar applies and falls back to
the event kernel otherwise, counting each reason under
``backend.fallback_reason.<slug>``.
"""

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import ConfigurationError, ValidationError
from repro.common.seeding import spawn_generator
from repro.common.validation import check_positive
from repro.core.adjudicators import Adjudicator, PaperRuleAdjudicator
from repro.core.modes import ModeConfig, OperatingMode, SequentialOrder
from repro.runtime.sampling import DemandScript, ScriptArena
from repro.simulation.metrics import ReleaseMetrics, SystemMetrics
from repro.simulation.outcomes import OUTCOME_ORDER, Outcome

CODE_EVIDENT = OUTCOME_ORDER.index(Outcome.EVIDENT_FAILURE)

#: Demand rows per parallel-mode kernel block.  The kernel takes as many
#: whole cells as fit in this budget (always at least one), so each
#: ``(cells, n)`` float64 temporary stays near 128 KB and in cache:
#: larger blocks spill out of cache, smaller ones pay numpy's per-call
#: overhead more often.  A fixed constant, not a tuning knob.
KERNEL_BLOCK_ROWS = 1 << 14

#: Canonical envelope-violation slugs.  Every ``(slug, message)`` pair
#: :func:`unsupported_reasons` can emit uses a slug declared here, and
#: every ``backend.fallback_reason.<slug>`` counter is derived from one
#: of these.  The whole-program analyzer (REPRO203 in
#: :mod:`repro.lint.program`) checks the three sets against each other
#: statically, so widening or narrowing the envelope cannot silently
#: drift out of sync with the fallback accounting.  Declared as a plain
#: tuple literal so the analyzer can read it from the AST.
FALLBACK_SLUGS: Tuple[str, ...] = (
    "adjudicator",
    "no-outcome-codes",
    "random-order",
    "retry",
    "tracing",
)


def unsupported_reasons(
    *,
    script: DemandScript,
    mode: Optional[ModeConfig] = None,
    adjudicator: Optional[Adjudicator] = None,
    tracing: bool = False,
    retry: Optional[object] = None,
    outcome_codes: Optional[np.ndarray] = None,
) -> List[Tuple[str, str]]:
    """Every reason this cell is outside the columnar envelope.

    Returns ``(slug, message)`` pairs — empty when the cell is fully
    inside the envelope.  ``backend="columnar"`` surfaces the messages
    in a :class:`~repro.common.errors.ConfigurationError`;
    ``backend="auto"`` falls back to the event kernel and counts each
    slug under the ``backend.fallback_reason.<slug>`` metric (plus the
    aggregate ``backend.fallback_cells``).
    """
    reasons: List[Tuple[str, str]] = []
    if tracing:
        reasons.append(
            ("tracing", "tracing requested (traces are an event-loop artifact)")
        )
    if script.outcome_codes is None and outcome_codes is None:
        reasons.append(
            (
                "no-outcome-codes",
                "script has no outcome code matrix (no joint model)",
            )
        )
    if adjudicator is not None and type(adjudicator) is not PaperRuleAdjudicator:
        reasons.append(
            (
                "adjudicator",
                f"adjudicator {type(adjudicator).__name__} is not the paper rule",
            )
        )
    if retry is not None:
        reasons.append(
            ("retry", "a retry policy runs on the event kernel only")
        )
    if mode is not None and _random_order(mode):
        reasons.append(
            (
                "random-order",
                "random-order sequential mode runs on the event kernel only",
            )
        )
    return reasons


def _random_order(mode: ModeConfig) -> bool:
    """Whether *mode* shuffles each demand's release order."""
    return (
        mode.mode is OperatingMode.SEQUENTIAL
        and mode.sequential_order is SequentialOrder.RANDOM
    )


def resolve_cell(
    script: DemandScript,
    release_names: Sequence[str],
    timeout: float,
    adjudication_delay: float,
    spacing: float,
    middleware_rng: np.random.Generator,
    *,
    mode: Optional[ModeConfig] = None,
    outcome_codes: Optional[np.ndarray] = None,
) -> SystemMetrics:
    """Resolve one cell's demands as array operations.

    Consumes the same pre-drawn *script* the event path replays, one
    demand per script row, and returns the same reduced
    :class:`SystemMetrics`, bit for bit.  *middleware_rng* must be in
    the same state as the generator handed to
    :class:`~repro.core.middleware.UpgradeMiddleware` before its
    construction: its first draw spawns the adjudication generator,
    mirroring the middleware constructor.  *outcome_codes* overrides
    the script's outcome matrix for cells whose endpoints sample their
    own marginals (a single-release deployment).

    The caller checks :func:`unsupported_reasons` first; a random-order
    sequential *mode* or a non-positive *timeout* raises here.  The
    cell runs as a one-cell group: its script becomes zero-copy
    ``(1, rows)`` views, resolved by the same code as
    :func:`resolve_cell_batch`.
    """
    codes = outcome_codes if outcome_codes is not None else script.outcome_codes
    arena = ScriptArena(
        t1=np.asarray(script.t1, dtype=np.float64)[None],
        t2=[np.asarray(t2, dtype=np.float64)[None] for t2 in script.t2],
        row_index=np.zeros(1, dtype=np.intp),
        outcome_codes=(
            None if codes is None else np.asarray(codes, dtype=np.int64)[None]
        ),
    )
    return _resolve_group(
        arena, release_names, [timeout], adjudication_delay, [spacing],
        [middleware_rng], mode,
    )[0]


def resolve_cell_batch(
    arena: ScriptArena,
    release_names: Sequence[str],
    timeouts: Sequence[float],
    adjudication_delay: float,
    spacings: Sequence[float],
    middleware_rngs: Sequence[np.random.Generator],
    *,
    mode: Optional[ModeConfig] = None,
) -> List[SystemMetrics]:
    """Resolve a whole batch of cells over their shared script arena.

    Cell *c* of the batch reads its script rows from ``arena.script(c)``
    (slab row ``arena.row_index[c]``, which cells observing one
    workload share) and its scalar parameters from ``timeouts[c]`` /
    ``spacings[c]`` / ``middleware_rngs[c]`` — every cell keeps its own
    middleware and adjudication generators, because each consumes its
    own tie-break draws.  The returned list is in cell order, and each
    entry is bit-identical to :func:`resolve_cell` run on that cell alone
    (asserted, not assumed, by the batched equivalence suite).  All
    cells in a batch share one (mode, release count) shape, mirroring
    how the batched grid path groups work; as for :func:`resolve_cell`,
    a random-order sequential *mode* or any non-positive timeout raises.

    Parallel modes run the release-major kernel over blocks of whole
    cells of at most :data:`KERNEL_BLOCK_ROWS` demand rows.  Sequential
    cells run per cell over the shared arena — the win there is the
    shared script drawing and the single batched store commit, not the
    resolver arithmetic.
    """
    return _resolve_group(
        arena, release_names, timeouts, adjudication_delay, spacings,
        middleware_rngs, mode,
    )


def _resolve_group(
    arena: ScriptArena,
    release_names: Sequence[str],
    timeouts: Sequence[float],
    adjudication_delay: float,
    spacings: Sequence[float],
    middleware_rngs: Sequence[np.random.Generator],
    mode: Optional[ModeConfig],
) -> List[SystemMetrics]:
    """Validate a cell group once, then resolve it by operating mode."""
    cells = arena.cells
    if not (len(timeouts) == len(spacings) == len(middleware_rngs) == cells):
        raise ConfigurationError(
            f"batch shape mismatch: arena holds {cells} cells but got "
            f"{len(timeouts)} timeouts, {len(spacings)} spacings, "
            f"{len(middleware_rngs)} middleware generators"
        )
    # The event path refuses these in SystemTimingPolicy.
    for timeout in timeouts:
        check_positive(timeout, "timeout")
    k = len(release_names)
    if k < 1:
        raise ConfigurationError("columnar backend needs at least one release")
    if arena.outcome_codes is None:
        raise ConfigurationError(
            "columnar backend needs a script with outcome codes"
        )
    codes = np.asarray(arena.outcome_codes, dtype=np.int64)
    # The kernel reads code columns j < k only: a wider block would be
    # truncated silently, so every slab's shape is checked here, once.
    # Slabs hold one row per distinct script, not per cell.
    scripts, n = arena.scripts, arena.rows
    if (
        len(arena.t2) != k
        or any(slab.shape != (scripts, n) for slab in arena.t2)
        or codes.shape != (scripts, n, k)
    ):
        raise ConfigurationError(
            f"script shape mismatch: {scripts} scripts of {n} demands and "
            f"{k} releases, but {len(arena.t2)} latency streams shaped "
            f"{[slab.shape for slab in arena.t2]} and an outcome code "
            f"block shaped {codes.shape} (expected ({scripts}, {n}, {k}))"
        )
    # The parallel kernel narrows codes to int8 and the rows count EER
    # as the remainder of CR and NER, so the whole block is range
    # checked here, once, at full width.
    if codes.size:
        low, high = int(codes.min()), int(codes.max())
        if low < 0 or high >= len(OUTCOME_ORDER):
            raise ValidationError(
                f"outcome codes must index OUTCOME_ORDER "
                f"(0..{len(OUTCOME_ORDER) - 1}): found {low}..{high}"
            )
    config = mode if mode is not None else ModeConfig.max_reliability()
    if _random_order(config):
        # Without this check a direct caller would get fixed-order rows.
        raise ConfigurationError(
            "random-order sequential mode runs on the event kernel only"
        )
    names = list(release_names)
    # Mirror UpgradeMiddleware.__init__ per cell, in cell order: the
    # adjudication generator is spawned from the middleware stream's
    # first draw.
    adjudication_rngs = [
        spawn_generator(int(rng.integers(2 ** 63)))
        for rng in middleware_rngs
    ]
    resolver = _MODE_RESOLVERS.get(config.mode)
    if resolver is None:  # pragma: no cover - REPRO203 keeps the table total
        raise ConfigurationError(
            f"no columnar resolver registered for operating mode "
            f"{config.mode.value!r}"
        )
    return resolver(
        arena, names, codes, timeouts, adjudication_delay, spacings,
        adjudication_rngs, config,
    )


def _bounded_draws(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """Replay the adjudicator's per-demand ``integers(bound)`` draws.

    One ``integers(bounds)`` call over the whole array of bounds draws
    element by element in order, each element exactly as a scalar
    ``integers(bound)`` call draws it (a bound of 1 consumes nothing),
    so the draws and the generator's final state are those of the
    kernel's per-demand calls for any mix of bounds.  An array of 2s
    (every two-release cell) takes ``integers(2, size=n)`` instead,
    which draws the same for less per draw than an array of bounds.
    """
    if (bounds == 2).all():
        return rng.integers(2, size=bounds.size)
    return rng.integers(bounds)


def _stable_ranks(keys: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Each key's elementwise position in a stable sort of *keys*.

    Key *i* sorts before key *j* (i < j) iff ``key_i <= key_j``: the
    lower release index wins a tie, exactly as a stable argsort along
    the release axis — one comparison per release pair, no sort.
    """
    ranks = [np.zeros(keys[0].shape, dtype=np.intp) for _ in keys]
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            first = keys[i] <= keys[j]
            ranks[j] += first
            ranks[i] += ~first
    return ranks


def _resolve_parallel(
    arena: ScriptArena,
    names: List[str],
    codes: np.ndarray,
    timeouts: Sequence[float],
    adjudication_delay: float,
    spacings: Sequence[float],
    adjudication_rngs: List[np.random.Generator],
    config: ModeConfig,
) -> List[SystemMetrics]:
    """Parallel modes 1–3: the kernel over row-budget blocks of cells.

    What does not depend on the TimeOut — each release's execution
    times ``fl(t1 + t2_k)`` and its outcome codes as one contiguous int8
    row — is prepared once per block of script rows and reused while
    the next block reads the same rows.  At 10,000 requests every block
    is one cell, so the three TimeOut cells of a Table 5/6 run share
    one preparation.
    """
    timeout_col = np.asarray(timeouts, dtype=np.float64)[:, None]
    spacing_col = np.asarray(spacings, dtype=np.float64)[:, None]
    step = max(1, KERNEL_BLOCK_ROWS // max(arena.rows, 1))
    results: List[SystemMetrics] = []
    prepared: List[int] = []
    execs: List[np.ndarray] = []
    code: List[np.ndarray] = []
    for lo in range(0, arena.cells, step):
        block = slice(lo, lo + step)
        rows = arena.row_index[block]
        if rows.tolist() != prepared:
            prepared = rows.tolist()
            # Gather the block's script rows (cells sharing a script
            # each get their own copy).  A one-cell block, as at 10,000
            # requests, slices a view instead: gathering it cost ~15% of
            # the resolver.
            pick: Union[slice, np.ndarray] = rows
            if rows.size == 1:
                pick = slice(int(rows[0]), int(rows[0]) + 1)
            t1 = arena.t1[pick]
            with np.errstate(invalid="ignore"):
                execs = [t1 + slab[pick] for slab in arena.t2]
            code = [
                codes[pick, :, j].astype(np.int8) for j in range(len(names))
            ]
        results.extend(_parallel_kernel(
            execs, code, timeout_col[block], spacing_col[block],
            adjudication_delay, adjudication_rngs[block], names, config,
        ))
    return results


def _parallel_kernel(
    execs: List[np.ndarray],
    code: List[np.ndarray],
    timeout_col: np.ndarray,
    spacing_col: np.ndarray,
    adjudication_delay: float,
    adjudication_rngs: List[np.random.Generator],
    names: List[str],
    config: ModeConfig,
) -> List[SystemMetrics]:
    """The parallel-mode adjudication, stated once, release-major.

    Every argument array is ``(cells, n)``: one array per release for
    the execution times ``fl(t1 + t2_k)`` and the int8 outcome codes,
    combined across releases by elementwise ops only.  Each rule below
    reproduces the event kernel's float arithmetic and tie-breaks bit
    for bit:

    * collection order is (arrival, release index) — the ranks of
      :func:`_stable_ranks` — and a demand collects its first *m*
      within-cutoff arrivals (all of them when ``m = k``);
    * the decision time is the *m*-th collected arrival when *m*
      arrived, else the cutoff; for ``m = k`` that is the elementwise
      max of the arrivals when all are within the cutoff;
    * max-responsiveness delivers the fastest valid response: a running
      minimum with strict ``<`` keeps the lowest release on a tie;
    * max-reliability and dynamic mode deliver the agreed code of the
      valid responses (the first one's, by a reversed ``where`` chain)
      and break a CR/NER mismatch with one draw per mismatching demand
      from the cell's adjudication generator, in demand order, indexing
      the valid responses in collection order.
    """
    k = len(names)
    cells, n = execs[0].shape
    m = k
    if (
        config.mode is OperatingMode.PARALLEL_DYNAMIC
        and config.min_responses is not None
    ):
        m = min(int(config.min_responses), k)
    with np.errstate(invalid="ignore"):
        starts = np.arange(n, dtype=np.float64) * spacing_col
        cutoffs = starts + timeout_col
        arrival = [starts + e for e in execs]
        within = [a < cutoffs for a in arrival]
        any_within = within[0]
        for w in within[1:]:
            any_within = any_within | w
        if m < k:
            rank = _stable_ranks(
                [np.where(w, a, np.inf) for w, a in zip(within, arrival)]
            )
            collected = [w & (r < m) for w, r in zip(within, rank)]
            decision = cutoffs
            for w, r, a in zip(within, rank, arrival):
                decision = np.where(w & (r == m - 1), a, decision)
        else:
            collected = within
            all_within, latest = within[0], arrival[0]
            for w, a in zip(within[1:], arrival[1:]):
                all_within = all_within & w
                latest = np.maximum(latest, a)
            decision = np.where(all_within, latest, cutoffs)
        # fl(min(fl(decision − start), TimeOut) + dT), in place: the
        # decision array is the kernel's own.
        clipped_times = np.subtract(decision, starts, out=decision)
        np.minimum(clipped_times, timeout_col, out=clipped_times)
        clipped_times += adjudication_delay
        valid = [c & (cj != CODE_EVIDENT) for c, cj in zip(collected, code)]

        if config.mode is OperatingMode.PARALLEL_RESPONSIVENESS:
            # The first valid response is delivered at once; its
            # arrival is the consumer-visible decision time, unclipped,
            # and no adjudication draw is ever consumed.
            fastest = np.where(valid[0], arrival[0], np.inf)
            system_codes = code[0]
            for v, a, cj in zip(valid[1:], arrival[1:], code[1:]):
                key = np.where(v, a, np.inf)
                faster = key < fastest
                fastest = np.where(faster, key, fastest)
                system_codes = _where_codes(faster, cj, system_codes)
            delivered = fastest < np.inf
            system_times = np.where(
                delivered, (fastest - starts) + adjudication_delay,
                clipped_times,
            )
            system_codes = _where_codes(delivered, system_codes, CODE_EVIDENT)
        else:
            system_times = clipped_times
            system_codes = np.full((cells, n), CODE_EVIDENT, dtype=np.int8)
            for v, cj in zip(reversed(valid), reversed(code)):
                system_codes = _where_codes(v, cj, system_codes)
            # Valid codes are CR or NER: a demand mismatches when a later
            # valid response disagrees with the first one.
            mismatch = np.zeros((cells, n), dtype=bool)
            for v, cj in zip(valid[1:], code[1:]):
                mismatch |= v & (cj != system_codes)
            _break_mismatches(
                mismatch, valid, arrival, code, system_codes,
                adjudication_rngs,
            )
        # Nothing reads the arrivals any more: each becomes the
        # recorded per-release time fl(arrival − start) in place.
        for a in arrival:
            np.subtract(a, starts, out=a)

    results = []
    for c in range(cells):
        release_rows = []
        for j, name in enumerate(names):
            sel = collected[j][c]
            release_rows.append(ReleaseMetrics.from_masks(
                name, sel, code[j][c], arrival[j][c][sel], n,
            ))
        system_row = ReleaseMetrics.from_masks(
            "System", any_within[c], system_codes[c], system_times[c], n,
        )
        metrics = SystemMetrics(releases=release_rows, system=system_row)
        metrics.check_consistency()
        results.append(metrics)
    return results


def _break_mismatches(
    mismatch: np.ndarray,
    valid: List[np.ndarray],
    arrival: List[np.ndarray],
    code: List[np.ndarray],
    system_codes: np.ndarray,
    adjudication_rngs: List[np.random.Generator],
) -> None:
    """Replay the paper-rule tie-break draws into *system_codes*.

    Each cell draws ``integers(len(valid))`` per mismatching demand from
    its own generator, in demand order (:func:`_bounded_draws`); the
    draw indexes the valid responses in collection order.  The
    mismatching demands are gathered by flat (cell-major) index.
    """
    cells, n = mismatch.shape
    rows = np.flatnonzero(mismatch)
    if not rows.size:
        return
    sub_valid = [v.reshape(-1)[rows] for v in valid]
    bounds = np.add.reduce(sub_valid, dtype=np.intp)
    draws = np.empty(rows.size, dtype=np.int64)
    offset = 0
    per_cell = np.bincount(rows // n, minlength=cells).tolist()
    for rng, count in zip(adjudication_rngs, per_cell):
        if count:
            span = slice(offset, offset + count)
            draws[span] = _bounded_draws(rng, bounds[span])
            offset += count
    rank = _stable_ranks([
        np.where(v, a.reshape(-1)[rows], np.inf)
        for v, a in zip(sub_valid, arrival)
    ])
    chosen = system_codes.reshape(-1)[rows]
    for r, cj in zip(rank, code):
        chosen = _where_codes(r == draws, cj.reshape(-1)[rows], chosen)
    np.put(system_codes, rows, chosen)


def _where_codes(
    mask: np.ndarray, chosen: np.ndarray, other: Union[np.ndarray, int]
) -> np.ndarray:
    """``np.where(mask, chosen, other)`` over int8 outcome codes.

    Computed as ``other + (chosen - other) * mask``, exact because codes
    are 0..2.  numpy's ``where`` on one-byte elements is ~8x slower than
    these three passes when the mask is irregular, as valid and
    tie-break masks are (a Table 5 cell's code selection: ~60 → 7.5 µs).
    """
    return other + (chosen - other) * mask


def _resolve_sequential(
    script: DemandScript,
    names: List[str],
    codes: np.ndarray,
    timeout: float,
    adjudication_delay: float,
    spacing: float,
) -> SystemMetrics:
    """Fixed-order sequential mode: escalate on evident failure.

    A vectorised stage loop: stage *j* consumes the next consecutive
    slice of release *j*'s latency script — exactly the cursor order of
    the serialized event path.
    """
    k = len(names)
    n = codes.shape[0]
    starts = np.arange(n, dtype=np.float64) * spacing
    cutoffs = starts + timeout

    invoked = np.zeros((n, k), dtype=bool)
    collected = np.zeros((n, k), dtype=bool)
    rec_time = np.zeros((n, k), dtype=np.float64)
    close = cutoffs.copy()
    valid_code = np.full(n, -1, dtype=np.int64)
    any_collected = np.zeros(n, dtype=bool)

    t1 = np.asarray(script.t1, dtype=np.float64)
    t2 = [np.asarray(script.t2[j], dtype=np.float64) for j in range(k)]
    alive = np.ones(n, dtype=bool)
    prev = starts.copy()
    for j in range(k):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        # Demands are serialized, so the demands reaching stage j
        # consume release j's script values consecutively, in demand
        # order.
        t2v = t2[j][: idx.size]
        with np.errstate(invalid="ignore"):
            arr = prev[idx] + (t1[idx] + t2v)
            within = arr < cutoffs[idx]
        invoked[idx, j] = True
        sel = idx[within]
        collected[sel, j] = True
        rec_time[sel, j] = arr[within] - starts[sel]
        any_collected[sel] = True
        code = codes[idx, j]
        valid = within & (code != CODE_EVIDENT)
        vsel = idx[valid]
        close[vsel] = arr[valid]
        valid_code[vsel] = code[valid]
        cont = within & ~valid
        if j == k - 1:
            csel = idx[cont]
            close[csel] = arr[cont]
        else:
            new_alive = np.zeros(n, dtype=bool)
            new_alive[idx[cont]] = True
            prev[idx[cont]] = arr[cont]
            alive = new_alive

    release_rows = []
    for j, name in enumerate(names):
        sel = collected[:, j]
        # Releases past the escalation point were never invoked; the
        # monitor does not score them at all on those demands.
        release_rows.append(ReleaseMetrics.from_masks(
            name, sel, codes[:, j], rec_time[sel, j],
            int(np.count_nonzero(invoked[:, j])),
        ))

    # At most one valid response is ever collected, so adjudication
    # never draws: the single valid wins, else all-evident, else
    # unavailable.
    system_codes = np.where(valid_code >= 0, valid_code, CODE_EVIDENT)
    system_times = np.minimum(close - starts, timeout) + adjudication_delay
    system_row = ReleaseMetrics.from_masks(
        "System", any_collected, system_codes, system_times, n,
    )
    metrics = SystemMetrics(releases=release_rows, system=system_row)
    metrics.check_consistency()
    return metrics


def _resolve_sequential_cells(
    arena: ScriptArena,
    names: List[str],
    codes: np.ndarray,
    timeouts: Sequence[float],
    adjudication_delay: float,
    spacings: Sequence[float],
    adjudication_rngs: List[np.random.Generator],
    config: ModeConfig,
) -> List[SystemMetrics]:
    """Sequential mode: each cell runs its own escalation chains.

    *adjudication_rngs* go unused (a sequential demand never draws, see
    :func:`_resolve_sequential`), and so does *config*: fixed order is
    the only sequential order :func:`_resolve_group` admits.
    """
    del adjudication_rngs, config
    row_index = arena.row_index
    return [
        _resolve_sequential(
            arena.script(c), names, codes[row_index[c]], float(timeouts[c]),
            adjudication_delay, float(spacings[c]),
        )
        for c in range(arena.cells)
    ]


#: Columnar resolver per operating mode.  Every :class:`OperatingMode`
#: member must have an entry — the whole-program analyzer (REPRO203)
#: checks this table against the enum, so widening the envelope to a
#: new mode without a resolver is a lint failure, not a runtime
#: surprise.  All resolvers take a validated cell group and return one
#: :class:`SystemMetrics` per cell: ``(arena, names, codes, timeouts,
#: adjudication_delay, spacings, adjudication_rngs, config)``.
_MODE_RESOLVERS: Dict[OperatingMode, Callable[..., List[SystemMetrics]]] = {
    OperatingMode.PARALLEL_RELIABILITY: _resolve_parallel,
    OperatingMode.PARALLEL_RESPONSIVENESS: _resolve_parallel,
    OperatingMode.PARALLEL_DYNAMIC: _resolve_parallel,
    OperatingMode.SEQUENTIAL: _resolve_sequential_cells,
}
