"""Bit-identity of the fused batched grid path.

The batched resolver's claim is the same as the columnar backend's —
*bit-identity*, not statistical agreement — one level up: a whole group
of cells resolved in one call must reproduce, float by float, what each
cell produces alone.  These tests pin that claim at every layer: the
shared script arena against per-cell :func:`build_demand_script` (array
bytes), the batched resolver against :func:`resolve_cell` for every
columnar operating mode x release count x several seeds (reduced rows
as IEEE bit patterns), chunks the parallel kernel splits at its
row budget, the orchestration (fused ``run_cells`` vs the same cells
with their ``BatchSpec`` stripped) end to end, which cells the grid
builder fuses (untraced, columnar-capable, two or more releases), the
guards direct callers meet (random-order mode, a bad TimeOut), and
cache-key invariance in both directions (a batched run's
cache serves a per-cell run and vice versa).  The arena, resolver and
kernel-block tests also run on the real grids' shape — three TimeOut
cells sharing one arena row per script — duplicates included.
"""

import dataclasses
import struct

import pytest

from repro.common.errors import ConfigurationError, ValidationError
from repro.common.seeding import SeedSequenceFactory
from repro.core.modes import ModeConfig, SequentialOrder
from repro.experiments import paper_params as P
from repro.experiments.event_sim import (
    LatencyProfile,
    release_pair_cells,
    run_joint_model_cell,
    run_release_pair_batch,
)
from repro.experiments.multi_release import chained_model
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import ExperimentOptions, get_spec, run_experiment
from repro.runtime import columnar
from repro.runtime.batch import BatchContext
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import BATCH_MAX_CELLS, run_cells
from repro.runtime.sampling import (
    ScriptArena,
    build_demand_script,
    build_demand_script_arena,
)
from repro.simulation.distributions import Exponential

COLUMNAR_MODES = [
    pytest.param(ModeConfig.max_reliability(), id="reliability"),
    pytest.param(ModeConfig.max_responsiveness(), id="responsiveness"),
    pytest.param(ModeConfig.dynamic(1), id="dynamic-k1"),
    pytest.param(ModeConfig.dynamic(2), id="dynamic-k2"),
    pytest.param(ModeConfig.sequential(), id="sequential-fixed"),
]

RELEASE_COUNTS = (1, 2, 3, 5)


def with_shared(values):
    """``(value, shared)`` params: each value alone, then Table 5/6-shaped.

    The unshared cases keep the plain value as their id.
    """
    return [pytest.param(value, False, id=str(value)) for value in values] + [
        pytest.param(value, True, id=f"{value}-shared") for value in values
    ]


def rows_as_bits(metrics):
    """all_rows() with every float canonicalised to its IEEE bit pattern."""
    def canon(value):
        if isinstance(value, float):
            return struct.pack("<d", value).hex()
        return value

    return {
        column: {key: canon(value) for key, value in row.items()}
        for column, row in metrics.all_rows().items()
    }


def cell_params(n_releases, seeds, shared=False):
    """A batch's per-cell (model, seed, timeout) triples and script keys.

    Seed *i* runs outcome model ``1 + i % 2``.  By default every cell
    has its own script and the TimeOut cycles over the cells.  *shared*
    gives the real grids' shape instead: each (seed, run) script under
    all three TimeOuts, so a seed listed twice in a row is one seed
    under two joint models — two scripts.
    """
    timeouts = (1.5, 2.0, 3.0)
    params, keys = [], []
    for i, seed in enumerate(seeds):
        run = 1 + (i % 2)
        model = (
            P.correlated_model(run) if n_releases == 2
            else chained_model(run)
        )
        for timeout in timeouts if shared else (timeouts[i % 3],):
            params.append((model, seed, timeout))
            keys.append((seed, run) if shared else len(keys))
    return params, keys


def resolve_both_ways(
    n_releases, mode=None, seeds=(3, 9, 17), requests=220, shared=False,
):
    """The same batch through resolve_cell per cell and resolve_cell_batch.

    *shared* builds the batch in the real grids' shape (see
    :func:`cell_params`): one arena row per script.
    """
    demand_difficulty = Exponential(P.T1_MEAN)
    latencies = [Exponential(P.T2_MEAN)] * n_releases
    names = [f"Web-Service 1.{index}" for index in range(n_releases)]
    params, keys = cell_params(n_releases, seeds, shared)

    percell = []
    for model, seed, timeout in params:
        factory = SeedSequenceFactory(seed)
        script = build_demand_script(
            model, demand_difficulty, latencies, requests, factory,
        )
        percell.append(columnar.resolve_cell(
            script,
            release_names=names,
            timeout=timeout,
            adjudication_delay=P.ADJUDICATION_DELAY,
            spacing=timeout + P.ADJUDICATION_DELAY + 0.5,
            middleware_rng=factory.generator("middleware"),
            mode=mode,
        ))

    factories = [SeedSequenceFactory(seed) for _, seed, _ in params]
    arena = build_demand_script_arena(
        [model for model, _, _ in params],
        demand_difficulty, latencies, requests, factories, keys,
    )
    assert arena.scripts == len(set(keys))
    batched = columnar.resolve_cell_batch(
        arena,
        release_names=names,
        timeouts=[timeout for _, _, timeout in params],
        adjudication_delay=P.ADJUDICATION_DELAY,
        spacings=[
            timeout + P.ADJUDICATION_DELAY + 0.5
            for _, _, timeout in params
        ],
        middleware_rngs=[
            factory.generator("middleware") for factory in factories
        ],
        mode=mode,
    )
    return percell, batched


class TestScriptArena:
    @pytest.mark.parametrize(
        "n_releases, shared", with_shared(RELEASE_COUNTS)
    )
    def test_arena_slabs_bytes_equal_standalone_scripts(
        self, n_releases, shared
    ):
        demand_difficulty = Exponential(P.T1_MEAN)
        latencies = [Exponential(P.T2_MEAN)] * n_releases
        # Shared, seed 9 runs under two joint models: two scripts.
        seeds = (3, 9, 9, 23) if shared else (3, 9, 17, 23)
        params, keys = cell_params(n_releases, seeds, shared)
        models = [model for model, _, _ in params]
        arena = build_demand_script_arena(
            models, demand_difficulty, latencies, 150,
            [SeedSequenceFactory(seed) for _, seed, _ in params], keys,
        )
        assert arena.cells == len(params) == (12 if shared else 4)
        assert arena.scripts == 4
        for index, (model, seed, _) in enumerate(params):
            script = build_demand_script(
                model, demand_difficulty, latencies, 150,
                SeedSequenceFactory(seed),
            )
            view = arena.script(index)
            assert view.t1.tobytes() == script.t1.tobytes()
            for j in range(n_releases):
                assert view.t2[j].tobytes() == script.t2[j].tobytes()
            assert script.outcome_codes is not None
            assert view.outcome_codes is not None
            assert (
                view.outcome_codes.tobytes()
                == script.outcome_codes.tobytes()
            )

    def shared_arena(self):
        params, keys = cell_params(2, seeds=(3, 9, 9, 23), shared=True)
        return build_demand_script_arena(
            [model for model, _, _ in params], Exponential(P.T1_MEAN),
            [Exponential(P.T2_MEAN)] * 2, 150,
            [SeedSequenceFactory(seed) for _, seed, _ in params], keys,
        )

    def test_one_row_per_distinct_script(self):
        arena = self.shared_arena()
        assert (arena.cells, arena.scripts, arena.rows) == (12, 4, 150)
        assert arena.row_index.tolist() == [
            0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3,
        ]
        assert arena.t1.shape == (4, 150)
        assert arena.outcome_codes.shape == (4, 150, 2)

    def test_drawn_slabs_are_read_only(self):
        # A resolver writing into a shared row would corrupt the cells
        # sharing it: the write raises instead.
        arena = self.shared_arena()
        for slab in (arena.t1, *arena.t2, arena.outcome_codes):
            with pytest.raises(ValueError, match="read-only"):
                slab[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            arena.script(4).t1[0] = 0.0


class TestResolverEquivalence:
    @pytest.mark.parametrize("mode", COLUMNAR_MODES)
    @pytest.mark.parametrize(
        "n_releases, shared", with_shared(RELEASE_COUNTS)
    )
    def test_rows_bit_identical_every_mode_and_release_count(
        self, n_releases, mode, shared
    ):
        if mode.min_responses is not None and (
            mode.min_responses > n_releases
        ):
            pytest.skip("dynamic k exceeds the release count")
        percell, batched = resolve_both_ways(
            n_releases, mode=mode, shared=shared
        )
        assert len(batched) == len(percell) == (9 if shared else 3)
        for expected, got in zip(percell, batched):
            assert rows_as_bits(expected) == rows_as_bits(got)

    @pytest.mark.parametrize("seeds", [
        (1, 2, 3), (101, 202, 303), (7, 7, 7),
    ])
    def test_reliability_rows_bit_identical_across_seed_sets(self, seeds):
        # Identical seeds in one batch are legitimate (same workload,
        # different timeout) and must not cross-contaminate.
        percell, batched = resolve_both_ways(2, seeds=seeds)
        for expected, got in zip(percell, batched):
            assert rows_as_bits(expected) == rows_as_bits(got)


PARALLEL_MODES = [
    pytest.param(ModeConfig.max_reliability(), id="reliability"),
    pytest.param(ModeConfig.max_responsiveness(), id="responsiveness"),
    pytest.param(ModeConfig.dynamic(1), id="dynamic-k1"),
    pytest.param(ModeConfig.dynamic(2), id="dynamic-k2"),
]


class TestKernelBlocks:
    """Chunks the parallel kernel splits at its row budget."""

    @pytest.mark.parametrize("mode", PARALLEL_MODES)
    @pytest.mark.parametrize("n_releases, shared", with_shared((2, 3)))
    def test_chunk_spanning_several_blocks(self, n_releases, shared, mode):
        requests = columnar.KERNEL_BLOCK_ROWS // 2
        seeds = (3, 9, 17)
        # Two cells fit a block, so the chunk runs as blocks of 2 + 1.
        # Shared, blocks of 2 + 2 + 2 + 2 gather rows (0, 0), (0, 1),
        # (1, 1) and (2, 2) — repeated rows, straddled scripts — and the
        # last one-cell block slices row 2.
        assert columnar.KERNEL_BLOCK_ROWS // requests == 2
        percell, batched = resolve_both_ways(
            n_releases, mode=mode, seeds=seeds, requests=requests,
            shared=shared,
        )
        assert len(batched) == len(seeds) * (3 if shared else 1)
        for expected, got in zip(percell, batched):
            assert rows_as_bits(expected) == rows_as_bits(got)

    @pytest.mark.parametrize("mode", PARALLEL_MODES)
    def test_cell_larger_than_the_budget(self, mode):
        requests = columnar.KERNEL_BLOCK_ROWS + 37
        percell, batched = resolve_both_ways(
            3, mode=mode, seeds=(5, 8), requests=requests
        )
        for expected, got in zip(percell, batched):
            assert rows_as_bits(expected) == rows_as_bits(got)


class TestShapeGuard:
    def test_wider_code_block_than_release_names_rejected(self):
        arena = build_demand_script_arena(
            [chained_model(1)] * 2, Exponential(P.T1_MEAN),
            [Exponential(P.T2_MEAN)] * 3, 50,
            [SeedSequenceFactory(seed) for seed in (1, 2)], [1, 2],
        )
        assert arena.outcome_codes is not None
        # Two latency slabs, as for two releases, but a 3-column code
        # block: the kernel reads only columns j < 2, so without the
        # guard the third column would be dropped silently.
        two_release = ScriptArena(
            t1=arena.t1, t2=arena.t2[:2], row_index=arena.row_index,
            outcome_codes=arena.outcome_codes,
        )
        with pytest.raises(ConfigurationError, match="outcome code block"):
            columnar.resolve_cell_batch(
                two_release,
                release_names=["Web-Service 1.0", "Web-Service 1.1"],
                timeouts=[1.5, 1.5],
                adjudication_delay=P.ADJUDICATION_DELAY,
                spacings=[2.1, 2.1],
                middleware_rngs=[
                    SeedSequenceFactory(seed).generator("middleware")
                    for seed in (1, 2)
                ],
            )


class TestDirectCallerGuards:
    """Checks a direct caller meets without asking the envelope first."""

    NAMES = ["Web-Service 1.0", "Web-Service 1.1"]

    def arena(self, seeds):
        return build_demand_script_arena(
            [P.correlated_model(1)] * len(seeds), Exponential(P.T1_MEAN),
            [Exponential(P.T2_MEAN)] * 2, 50,
            [SeedSequenceFactory(seed) for seed in seeds], list(seeds),
        )

    def resolve_batch(self, timeouts, mode=None):
        seeds = tuple(range(1, len(timeouts) + 1))
        return columnar.resolve_cell_batch(
            self.arena(seeds),
            release_names=self.NAMES,
            timeouts=timeouts,
            adjudication_delay=P.ADJUDICATION_DELAY,
            spacings=[2.1] * len(timeouts),
            middleware_rngs=[
                SeedSequenceFactory(seed).generator("middleware")
                for seed in seeds
            ],
            mode=mode,
        )

    def test_resolve_cell_refuses_random_order(self):
        # Without the check it would return fixed-order rows.
        with pytest.raises(ConfigurationError, match="random-order"):
            columnar.resolve_cell(
                self.arena((1,)).script(0),
                release_names=self.NAMES,
                timeout=1.5,
                adjudication_delay=P.ADJUDICATION_DELAY,
                spacing=2.1,
                middleware_rng=SeedSequenceFactory(1).generator(
                    "middleware"
                ),
                mode=ModeConfig.sequential(SequentialOrder.RANDOM),
            )

    def test_resolve_cell_batch_refuses_random_order(self):
        with pytest.raises(ConfigurationError, match="random-order"):
            self.resolve_batch(
                [1.5, 2.0], mode=ModeConfig.sequential(SequentialOrder.RANDOM)
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_one_bad_timeout_refuses_the_batch(self, bad):
        assert len(self.resolve_batch([1.5, 2.0, 3.0])) == 3
        with pytest.raises(ValidationError, match="timeout"):
            self.resolve_batch([1.5, bad, 3.0])

    def bad_code_arena(self, seeds, code):
        """The arena with one outcome code outside OUTCOME_ORDER."""
        arena = self.arena(seeds)
        codes = arena.outcome_codes.copy()
        # The last demand of the last script, second release: the range
        # check covers every code, collected or not.
        codes[-1, -1, 1] = code
        return ScriptArena(
            t1=arena.t1, t2=arena.t2, row_index=arena.row_index,
            outcome_codes=codes,
        )

    @pytest.mark.parametrize("code", [-1, 3, 127, 255])
    @pytest.mark.parametrize("mode", COLUMNAR_MODES)
    def test_out_of_range_code_refuses_resolve_cell(self, mode, code):
        script = self.bad_code_arena((1,), code).script(0)
        with pytest.raises(ValidationError, match="OUTCOME_ORDER"):
            columnar.resolve_cell(
                script,
                release_names=self.NAMES,
                timeout=1.5,
                adjudication_delay=P.ADJUDICATION_DELAY,
                spacing=2.1,
                middleware_rng=SeedSequenceFactory(1).generator(
                    "middleware"
                ),
                mode=mode,
            )

    @pytest.mark.parametrize("code", [-1, 3, 127, 255])
    @pytest.mark.parametrize("mode", COLUMNAR_MODES)
    def test_out_of_range_code_refuses_resolve_cell_batch(self, mode, code):
        seeds = (1, 2, 3)
        with pytest.raises(ValidationError, match="OUTCOME_ORDER"):
            columnar.resolve_cell_batch(
                self.bad_code_arena(seeds, code),
                release_names=self.NAMES,
                timeouts=[1.5, 2.0, 3.0],
                adjudication_delay=P.ADJUDICATION_DELAY,
                spacings=[2.1, 2.6, 3.6],
                middleware_rngs=[
                    SeedSequenceFactory(seed).generator("middleware")
                    for seed in seeds
                ],
                mode=mode,
            )


def per_cell(cells):
    """The same cells with their BatchSpec stripped: the per-cell path."""
    return [dataclasses.replace(cell, batch=None) for cell in cells]


class TestOrchestration:
    def grid(self, metrics=None, backend="auto"):
        return release_pair_cells(
            "table5", "correlated", seed=11, requests=180,
            backend=backend, metrics=metrics,
        )

    def test_batched_results_equal_per_cell_results(self):
        batched = run_cells(self.grid())
        percell = run_cells(per_cell(self.grid()))
        assert len(batched) == len(percell) == 12
        for left, right in zip(batched, percell):
            assert (left.run, left.timeout) == (right.run, right.timeout)
            assert rows_as_bits(left.metrics) == rows_as_bits(right.metrics)

    def test_batch_limit_chunking_is_result_invariant(self, monkeypatch):
        whole = run_cells(self.grid())
        monkeypatch.setenv("REPRO_BATCH_MAX_CELLS", "5")
        chunked = run_cells(self.grid())
        for left, right in zip(whole, chunked):
            assert rows_as_bits(left.metrics) == rows_as_bits(right.metrics)

    def test_chunks_splitting_a_runs_timeouts_render_identical_tables(
        self, monkeypatch
    ):
        # Chunks of 5, 5 and 2 cells split runs 2 and 4 across chunk
        # boundaries, so each chunk draws its own copy of their scripts:
        # 2 + 3 + 1 = 6 draws instead of 4, and the same tables.
        spec = get_spec("table5")

        def render():
            metrics = MetricsRegistry()
            outcome = run_experiment(spec, ExperimentOptions(
                seed=11, requests=180, metrics=metrics,
            ))
            counters = metrics.as_dict()["counters"]
            return outcome.text, counters["backend.batched_scripts"]

        whole, whole_scripts = render()
        monkeypatch.setenv("REPRO_BATCH_MAX_CELLS", "5")
        chunked, chunked_scripts = render()
        assert chunked == whole
        assert (whole_scripts, chunked_scripts) == (4, 6)

    @pytest.mark.parametrize("limit, scripts", [(None, 24), ("64", 25)])
    def test_default_chunks_never_split_a_run(
        self, monkeypatch, limit, scripts
    ):
        # Six 12-cell grids as one 72-cell list, one fused group.  The
        # default limit, a multiple of a run's three TimeOut cells, cuts
        # the group between runs (63 + 9 cells), so 24 runs draw 24
        # scripts; at 64 the run of cells 63-65 lands in both chunks,
        # and both draw it.
        assert BATCH_MAX_CELLS % len(P.TIMEOUTS) == 0
        monkeypatch.delenv("REPRO_BATCH_MAX_CELLS", raising=False)
        if limit is not None:
            monkeypatch.setenv("REPRO_BATCH_MAX_CELLS", limit)
        cells = [
            cell
            for index in range(6)
            for cell in release_pair_cells(
                "table5", "correlated", seed=100 + index, requests=60,
                backend="columnar",
            )
        ]
        assert len(cells) == 72
        metrics = MetricsRegistry()
        run_cells(cells, metrics=metrics)
        counters = metrics.as_dict()["counters"]
        assert counters["backend.batched_cells"] == 72
        assert counters["backend.batched_scripts"] == scripts

    def test_batch_keys_scripts_on_seed_joint_and_run(self):
        # One root seed under three (joint, run) outcome models: keying
        # on the seed alone would hand every cell the first model's
        # outcomes.
        kwargs_list = [
            dict(
                joint=joint, run=run, timeout=timeout, requests=160,
                seed=77, profile=None, backend="auto",
            )
            for joint, run in (
                ("correlated", 1), ("correlated", 2), ("independent", 1)
            )
            for timeout in P.TIMEOUTS
        ]
        metrics = MetricsRegistry()
        results = run_release_pair_batch(
            kwargs_list, BatchContext(metrics=metrics)
        )
        counters = metrics.as_dict()["counters"]
        assert counters["backend.batched_cells"] == 9
        assert counters["backend.batched_scripts"] == 3
        for kw, got in zip(kwargs_list, results):
            want = run_joint_model_cell(**kw)
            assert (got.run, got.timeout) == (want.run, want.timeout)
            assert rows_as_bits(got.metrics) == rows_as_bits(want.metrics)

    def test_batched_counters(self):
        metrics = MetricsRegistry()
        run_cells(self.grid(metrics), metrics=metrics)
        counters = metrics.as_dict()["counters"]
        assert counters["backend.batched_cells"] == 12
        assert counters["backend.batched_scripts"] == 4
        assert counters["backend.columnar_cells"] == 12

    def test_lone_release_cells_carry_no_batch_spec_and_match_the_event_kernel(
        self,
    ):
        # A lone release samples its own marginal, which the arena does
        # not script: the builder leaves its cells on the per-cell path,
        # which resolves every cell columnar, bit-identical to the event
        # kernel.
        profile = LatencyProfile(
            "single", Exponential(P.T1_MEAN), (Exponential(P.T2_MEAN),)
        )
        metrics = MetricsRegistry()
        cells = release_pair_cells(
            "table5", "correlated", seed=11, requests=120,
            profile=profile, backend="auto", metrics=metrics,
        )
        assert all(cell.batch is None for cell in cells)
        results = run_cells(cells, metrics=metrics)
        counters = metrics.as_dict()["counters"]
        assert "backend.batched_cells" not in counters
        assert "backend.fallback_cells" not in counters
        assert counters["backend.columnar_cells"] == 12
        event = run_cells(release_pair_cells(
            "table5", "correlated", seed=11, requests=120,
            profile=profile, backend="event",
        ))
        for left, right in zip(results, event):
            assert rows_as_bits(left.metrics) == rows_as_bits(right.metrics)

    @pytest.mark.parametrize("value", ["sixty", "0", "-3"])
    def test_invalid_batch_max_cells_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BATCH_MAX_CELLS", value)
        with pytest.raises(ConfigurationError) as err:
            run_cells(self.grid())
        assert "REPRO_BATCH_MAX_CELLS" in str(err.value)
        assert repr(value) in str(err.value)

    def test_event_backend_cells_carry_no_batch_spec(self):
        for spec in self.grid(backend="event"):
            assert spec.batch is None

    @pytest.mark.parametrize("backend", ["auto", "columnar"])
    def test_traced_cells_carry_no_batch_spec(self, tmp_path, backend):
        cells = release_pair_cells(
            "table5", "correlated", seed=11, requests=120,
            backend=backend, trace_dir=str(tmp_path),
        )
        assert all(cell.batch is None for cell in cells)

    def test_batched_cache_serves_per_cell_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_cells(self.grid(), cache=cache)
        assert cache.entry_count() == 12
        metrics = MetricsRegistry()
        cache.metrics = metrics
        results = run_cells(per_cell(self.grid()), cache=cache)
        counters = metrics.as_dict()["counters"]
        assert counters["cache.hit"] == 12
        assert all(result is not None for result in results)

    def test_per_cell_cache_serves_batched_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_cells(per_cell(self.grid()), cache=cache)
        assert cache.entry_count() == 12
        metrics = MetricsRegistry()
        cache.metrics = metrics
        results = run_cells(self.grid(), cache=cache)
        counters = metrics.as_dict()["counters"]
        assert counters["cache.hit"] == 12
        assert "backend.batched_cells" not in counters
        assert all(result is not None for result in results)
