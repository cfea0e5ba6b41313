"""Bit-identity of the fused batched grid path.

The batched resolver's claim is the same as the columnar backend's —
*bit-identity*, not statistical agreement — one level up: a whole group
of cells resolved in one call must reproduce, float by float, what each
cell produces alone.  These tests pin that claim at every layer: the
shared script arena against per-cell :func:`build_demand_script` (array
bytes), the batched resolver against :func:`resolve_cell` for every
operating mode x release count x retry policy x several seeds (reduced
rows as IEEE bit patterns), chunks the parallel kernel splits at its
row budget, the orchestration (fused ``run_cells`` vs the same cells
with their ``BatchSpec`` stripped) end to end, the mixed-envelope group
fallback, and cache-key invariance in both directions (a batched run's
cache serves a per-cell run and vice versa).
"""

import dataclasses
import struct

import pytest

from repro.common.errors import ConfigurationError
from repro.common.seeding import SeedSequenceFactory
from repro.core.modes import ModeConfig, SequentialOrder
from repro.experiments import paper_params as P
from repro.experiments.event_sim import LatencyProfile, release_pair_cells
from repro.experiments.multi_release import chained_model
from repro.obs.metrics import MetricsRegistry
from repro.runtime import columnar
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import run_cells
from repro.runtime.sampling import (
    ScriptArena,
    build_demand_script,
    build_demand_script_arena,
)
from repro.services.retry import RetryPolicy
from repro.simulation.distributions import Exponential

ALL_MODES = [
    pytest.param(ModeConfig.max_reliability(), id="reliability"),
    pytest.param(ModeConfig.max_responsiveness(), id="responsiveness"),
    pytest.param(ModeConfig.dynamic(1), id="dynamic-k1"),
    pytest.param(ModeConfig.dynamic(2), id="dynamic-k2"),
    pytest.param(ModeConfig.sequential(), id="sequential-fixed"),
    pytest.param(
        ModeConfig.sequential(SequentialOrder.RANDOM),
        id="sequential-random",
    ),
]

RELEASE_COUNTS = (1, 2, 3, 5)


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


def cell_params(n_releases, seeds):
    """A heterogeneous batch: per-cell (model, seed, timeout) triples."""
    timeouts = (1.5, 2.0, 3.0)
    params = []
    for i, seed in enumerate(seeds):
        run = 1 + (i % 2)
        model = (
            P.correlated_model(run) if n_releases == 2
            else chained_model(run)
        )
        params.append((model, seed, timeouts[i % len(timeouts)]))
    return params


def resolve_both_ways(
    n_releases, mode=None, retry=None, seeds=(3, 9, 17), requests=220
):
    """The same batch through resolve_cell per cell and resolve_cell_batch."""
    demand_difficulty = Exponential(P.T1_MEAN)
    latencies = [Exponential(P.T2_MEAN)] * n_releases
    names = [f"Web-Service 1.{index}" for index in range(n_releases)]
    draws = (
        requests * (1 + retry.max_attempts) if retry is not None else None
    )
    params = cell_params(n_releases, seeds)

    percell = []
    for model, seed, timeout in params:
        factory = SeedSequenceFactory(seed)
        script = build_demand_script(
            model, demand_difficulty, latencies, requests, factory,
            draws=draws,
        )
        percell.append(columnar.resolve_cell(
            script,
            release_names=names,
            timeout=timeout,
            adjudication_delay=P.ADJUDICATION_DELAY,
            spacing=timeout + P.ADJUDICATION_DELAY + 0.5,
            middleware_rng=factory.generator("middleware"),
            requests=requests,
            mode=mode,
            retry=retry,
        ))

    factories = [SeedSequenceFactory(seed) for _, seed, _ in params]
    arena = build_demand_script_arena(
        [model for model, _, _ in params],
        demand_difficulty, latencies, requests, factories, draws=draws,
    )
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
        requests=requests,
        mode=mode,
        retry=retry,
    )
    return percell, batched


class TestScriptArena:
    @pytest.mark.parametrize("n_releases", RELEASE_COUNTS)
    def test_arena_slabs_bytes_equal_standalone_scripts(self, n_releases):
        demand_difficulty = Exponential(P.T1_MEAN)
        latencies = [Exponential(P.T2_MEAN)] * n_releases
        params = cell_params(n_releases, seeds=(3, 9, 17, 23))
        models = [model for model, _, _ in params]
        arena = build_demand_script_arena(
            models, demand_difficulty, latencies, 150,
            [SeedSequenceFactory(seed) for _, seed, _ in params],
        )
        assert arena.cells == len(params)
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

    def test_arena_overprovisions_draws_like_retry_scripts(self):
        arena = build_demand_script_arena(
            [P.correlated_model(1)], Exponential(P.T1_MEAN),
            [Exponential(P.T2_MEAN)] * 2, 100,
            [SeedSequenceFactory(5)], draws=300,
        )
        assert arena.rows == 300
        script = build_demand_script(
            P.correlated_model(1), Exponential(P.T1_MEAN),
            [Exponential(P.T2_MEAN)] * 2, 100,
            SeedSequenceFactory(5), draws=300,
        )
        assert arena.script(0).t1.tobytes() == script.t1.tobytes()


class TestResolverEquivalence:
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("n_releases", RELEASE_COUNTS)
    def test_rows_bit_identical_every_mode_and_release_count(
        self, n_releases, mode
    ):
        if mode.min_responses is not None and (
            mode.min_responses > n_releases
        ):
            pytest.skip("dynamic k exceeds the release count")
        percell, batched = resolve_both_ways(n_releases, mode=mode)
        assert len(batched) == len(percell)
        for expected, got in zip(percell, batched):
            assert rows_as_bits(expected) == rows_as_bits(got)

    @pytest.mark.parametrize("seeds", [(3, 9, 17), (21, 42, 63, 84)])
    @pytest.mark.parametrize("max_attempts", [2, 3])
    def test_retry_rows_bit_identical(self, max_attempts, seeds):
        percell, batched = resolve_both_ways(
            2, retry=RetryPolicy(max_attempts=max_attempts), seeds=seeds
        )
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
    @pytest.mark.parametrize("n_releases", (2, 3))
    def test_chunk_spanning_several_blocks(self, n_releases, mode):
        requests = columnar.KERNEL_BLOCK_ROWS // 2
        seeds = (3, 9, 17)
        # Two cells fit a block, so the chunk runs as blocks of 2 + 1.
        assert columnar.KERNEL_BLOCK_ROWS // requests == 2
        percell, batched = resolve_both_ways(
            n_releases, mode=mode, seeds=seeds, requests=requests
        )
        assert len(batched) == len(seeds)
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
            [SeedSequenceFactory(seed) for seed in (1, 2)],
        )
        assert arena.outcome_codes is not None
        # Two latency slabs, as for two releases, but a 3-column code
        # block: the kernel reads only columns j < 2, so without the
        # guard the third column would be dropped silently.
        two_release = ScriptArena(
            requests=arena.requests, t1=arena.t1, t2=arena.t2[:2],
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

    def test_batched_counters(self):
        metrics = MetricsRegistry()
        run_cells(self.grid(metrics), metrics=metrics)
        counters = metrics.as_dict()["counters"]
        assert counters["backend.batched_cells"] == 12
        assert counters["backend.columnar_cells"] == 12
        assert "backend.batched_fallback_cells" not in counters

    def test_mixed_envelope_group_falls_back_whole_and_stays_correct(
        self, tmp_path
    ):
        # Doctor one cell of the group outside the arena's envelope (a
        # trace path) while keeping its BatchSpec: the batch function
        # must decline the whole group, and every cell — the doctored
        # one included — must come back correct down the per-cell path
        # (the doctored cell on the event kernel, bit-identical to
        # columnar by contract).
        metrics = MetricsRegistry()
        cells = self.grid(metrics)
        doctored = dataclasses.replace(
            cells[3],
            kwargs={
                **cells[3].kwargs,
                "trace_path": str(tmp_path / "doctored.jsonl"),
            },
        )
        cells = cells[:3] + [doctored] + cells[4:]
        results = run_cells(cells, metrics=metrics)
        counters = metrics.as_dict()["counters"]
        assert counters["backend.batched_fallback_cells"] == 12
        assert counters["backend.batched_fallback_reason.tracing"] == 12
        assert "backend.batched_cells" not in counters
        # The per-cell path resolved every cell: the eleven untraced
        # ones columnar, the traced one on the event kernel.
        assert counters["backend.columnar_cells"] == 11
        assert counters["backend.fallback_cells"] == 1
        assert counters["backend.fallback_reason.tracing"] == 1
        assert (tmp_path / "doctored.jsonl").stat().st_size > 0
        baseline = run_cells(per_cell(self.grid()))
        for left, right in zip(results, baseline):
            assert rows_as_bits(left.metrics) == rows_as_bits(right.metrics)

    def test_lone_release_group_declines_to_the_per_cell_path(self):
        # A lone release samples its own marginal, which the arena does
        # not script: the group declines before drawing, and the
        # per-cell path resolves every cell columnar, bit-identical to
        # the event kernel.
        profile = LatencyProfile(
            "single", Exponential(P.T1_MEAN), (Exponential(P.T2_MEAN),)
        )
        metrics = MetricsRegistry()
        cells = release_pair_cells(
            "table5", "correlated", seed=11, requests=120,
            profile=profile, backend="auto", metrics=metrics,
        )
        results = run_cells(cells, metrics=metrics)
        counters = metrics.as_dict()["counters"]
        assert (
            counters["backend.batched_fallback_reason.no-outcome-codes"]
            == 12
        )
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
