"""Contract tests for the ExperimentSpec registry and size resolution."""

import pytest

from repro.common.errors import ConfigurationError
from repro.pipeline import (
    ExperimentOptions,
    ExperimentSpec,
    discover,
    experiment_names,
    get_spec,
    register,
    registered_specs,
    validate_cells,
)
from repro.runtime.parallel import CellSpec


def _noop_render(value, options):
    return str(value)


def _noop_cells(options, sizes):
    return []


def _noop_reduce(results, options):
    return results


class TestSpecValidation:
    def test_render_required(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name="x", title="x", build_cells=_noop_cells,
                           reduce=_noop_reduce)

    def test_grid_hooks_required_without_composite(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name="x", title="x", render=_noop_render)

    def test_composite_excludes_grid_hooks(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                name="x", title="x", render=_noop_render,
                composite=lambda options: None,
                build_cells=_noop_cells, reduce=_noop_reduce,
            )

    def test_fast_sizes_must_be_subset(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                name="x", title="x", build_cells=_noop_cells,
                reduce=_noop_reduce, render=_noop_render,
                full_sizes={"requests": 10}, fast_sizes={"samples": 5},
            )

    def test_workload_key_must_be_declared(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                name="x", title="x", build_cells=_noop_cells,
                reduce=_noop_reduce, render=_noop_render,
                full_sizes={"requests": 10}, workload_key="samples",
            )


class TestSizeResolution:
    def _spec(self):
        return ExperimentSpec(
            name="sizes", title="sizes", build_cells=_noop_cells,
            reduce=_noop_reduce, render=_noop_render,
            full_sizes={"requests": 10_000, "grid": "full"},
            fast_sizes={"requests": 500},
            workload_key="requests",
        )

    def test_full_by_default(self):
        sizes = self._spec().sizes(ExperimentOptions(seed=1))
        assert sizes == {"requests": 10_000, "grid": "full"}

    def test_fast_overlays_full(self):
        sizes = self._spec().sizes(ExperimentOptions(seed=1, fast=True))
        assert sizes == {"requests": 500, "grid": "full"}

    def test_requests_override_rewrites_workload_key(self):
        sizes = self._spec().sizes(
            ExperimentOptions(seed=1, fast=True, requests=77)
        )
        assert sizes["requests"] == 77

    def test_override_without_workload_key_is_inert(self):
        spec = ExperimentSpec(
            name="inert", title="inert", build_cells=_noop_cells,
            reduce=_noop_reduce, render=_noop_render,
            full_sizes={"samples": 3},
        )
        sizes = spec.sizes(ExperimentOptions(seed=1, requests=99))
        assert sizes == {"samples": 3}


class TestOptionsValidation:
    @pytest.mark.parametrize("requests", [0, -1, -5])
    def test_requests_below_one_rejected(self, requests):
        with pytest.raises(ConfigurationError, match="requests"):
            ExperimentOptions(seed=1, requests=requests)

    def test_requests_of_one_or_unset_accepted(self):
        assert ExperimentOptions(seed=1, requests=1).requests == 1
        assert ExperimentOptions(seed=1).requests is None

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            ExperimentOptions(seed=seed)

    def test_seed_zero_accepted(self):
        assert ExperimentOptions(seed=0).seed == 0


class TestRegistry:
    def test_discover_finds_every_experiment(self):
        discover()
        names = experiment_names()
        for expected in ("table2", "table5", "table6", "fig7", "fig8",
                         "calibrate", "fidelity", "multirelease",
                         "robustness", "report"):
            assert expected in names

    def test_reregistering_same_object_is_idempotent(self):
        discover()
        spec = get_spec("table5")
        assert register(spec) is spec

    def test_name_conflict_rejected(self):
        discover()
        clone = ExperimentSpec(
            name="table5", title="imposter", build_cells=_noop_cells,
            reduce=_noop_reduce, render=_noop_render,
        )
        with pytest.raises(ConfigurationError):
            register(clone)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_spec("table9")

    def test_every_grid_spec_declares_cache_schema(self):
        discover()
        for name, spec in registered_specs().items():
            if not spec.is_composite:
                assert spec.cache_schema, name


class TestValidateCells:
    def _spec(self):
        return ExperimentSpec(
            name="v", title="v", build_cells=_noop_cells,
            reduce=_noop_reduce, render=_noop_render,
            cache_schema=("alpha", "beta"),
        )

    def test_matching_key_accepted(self):
        cell = CellSpec(experiment="v", fn=len,
                        kwargs={}, key=dict(alpha=1, beta=2))
        validate_cells(self._spec(), [cell])

    def test_drifted_key_rejected(self):
        cell = CellSpec(experiment="v", fn=len,
                        kwargs={}, key=dict(alpha=1, gamma=2))
        with pytest.raises(ConfigurationError):
            validate_cells(self._spec(), [cell])

    def test_traced_cells_opt_out_with_none(self):
        cell = CellSpec(experiment="v", fn=len, kwargs={}, key=None)
        validate_cells(self._spec(), [cell])

    def test_cacheable_cell_needs_a_schema(self):
        spec = ExperimentSpec(
            name="nos", title="nos", build_cells=_noop_cells,
            reduce=_noop_reduce, render=_noop_render,
        )
        cell = CellSpec(experiment="nos", fn=len, kwargs={},
                        key=dict(alpha=1))
        with pytest.raises(ConfigurationError):
            validate_cells(spec, [cell])

    def test_registered_grids_pass_their_own_schema(self):
        discover()
        # Fig. 7 refuses fewer than 2,001 demands (one checkpoint per
        # 2,000 cannot plot); building runs nothing, so size is free.
        options = ExperimentOptions(seed=1, fast=True, requests=2_001)
        for name, spec in registered_specs().items():
            if spec.is_composite:
                continue
            cells = spec.build_cells(options, spec.sizes(options))
            validate_cells(spec, cells)
            assert cells, name
