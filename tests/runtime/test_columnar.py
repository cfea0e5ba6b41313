"""Cross-backend equivalence for the columnar demand-resolution backend.

The columnar backend's whole claim is *bit-identity* with the event
kernel inside its envelope — not statistical agreement.  These tests
compare reduced rows by float bit pattern (NaN-safe, no tolerance), for
hand-picked cells, for every operating mode the backend resolves across
multiple seeds and both latency profiles (the calibrated one exercises
hangs and shared unavailability), for N-release deployments, and for
the first fast cell of every registered grid spec that carries a
``backend`` cache-key field.  The envelope property test pins the support contract:
``unsupported_reasons()`` is empty exactly when an explicit
``backend="columnar"`` run succeeds.  The fallback tests pin the
``auto`` semantics: outside the envelope — retry and random-order
sequential mode among it — the event kernel runs and the
``backend.fallback_cells`` / ``backend.fallback_reason.<slug>``
counters say why.
"""

import math
import struct

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, ValidationError
from repro.common.seeding import SeedSequenceFactory
from repro.core.adjudicators import FastestValidAdjudicator
from repro.core.modes import ModeConfig, SequentialOrder
from repro.experiments import paper_params as P
from repro.experiments.event_sim import (
    LatencyProfile,
    calibrated_profile,
    joint_model,
    paper_profile,
    release_pair_cells,
    run_release_pair_simulation,
)
from repro.experiments.multi_release import (
    chained_model,
    run_n_release_simulation,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import MemoryTracer
from repro.pipeline import (
    ExperimentOptions,
    discover,
    registered_specs,
)
from repro.runtime import columnar
from repro.runtime.sampling import build_demand_script
from repro.services.retry import RetryPolicy
from repro.simulation.distributions import Deterministic, WithHangs

#: The §4.2 operating modes the columnar backend resolves.
COLUMNAR_MODES = [
    pytest.param(ModeConfig.max_reliability(), id="reliability"),
    pytest.param(ModeConfig.max_responsiveness(), id="responsiveness"),
    pytest.param(ModeConfig.dynamic(1), id="dynamic-k1"),
    pytest.param(ModeConfig.dynamic(2), id="dynamic-k2"),
    pytest.param(ModeConfig.sequential(), id="sequential-fixed"),
]

RANDOM_ORDER = ModeConfig.sequential(SequentialOrder.RANDOM)

#: All four modes, random-order sequential (event kernel only) included.
ALL_MODES = COLUMNAR_MODES + [
    pytest.param(RANDOM_ORDER, id="sequential-random"),
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


def run_cell(backend, **overrides):
    kwargs = dict(
        joint_model=P.correlated_model(1),
        timeout=1.5,
        requests=400,
        seed=9,
        backend=backend,
    )
    kwargs.update(overrides)
    return run_release_pair_simulation(**kwargs)


class TestCellEquivalence:
    @pytest.mark.parametrize("joint,run", [
        ("correlated", 1), ("correlated", 4), ("independent", 2),
    ])
    @pytest.mark.parametrize("timeout", [1.5, 3.0])
    def test_paper_profile_rows_bit_identical(self, joint, run, timeout):
        model = joint_model(joint, run)
        event = run_cell("event", joint_model=model, timeout=timeout)
        columnar = run_cell("columnar", joint_model=model, timeout=timeout)
        assert rows_as_bits(event) == rows_as_bits(columnar)

    @pytest.mark.parametrize("timeout", [1.5, 2.0, 3.0])
    def test_calibrated_profile_with_hangs_bit_identical(self, timeout):
        # WithHangs injects infinite latencies: responses that never
        # arrive without being NRDT-by-slowness — the nastiest corner of
        # the timeout-clipping arithmetic.
        event = run_cell(
            "event", timeout=timeout, profile=calibrated_profile()
        )
        columnar = run_cell(
            "columnar", timeout=timeout, profile=calibrated_profile()
        )
        assert rows_as_bits(event) == rows_as_bits(columnar)

    def test_columnar_counter_increments(self):
        registry = MetricsRegistry()
        run_cell("columnar", metrics=registry)
        counters = registry.as_dict()["counters"]
        assert counters["backend.columnar_cells"] == 1
        assert "backend.fallback_cells" not in counters


class TestRegisteredGridSpecs:
    def test_every_backend_grid_spec_first_fast_cell(self):
        """One --fast cell per backend-aware spec, rows bit-identical."""
        discover()
        specs = [
            spec for spec in registered_specs().values()
            if "backend" in spec.cache_schema
        ]
        assert {"table5", "table6", "fidelity", "multirelease"} <= {
            spec.name for spec in specs
        }
        for spec in specs:
            rows = {}
            for backend in ("event", "columnar"):
                options = ExperimentOptions(
                    seed=5, fast=True, requests=300, backend=backend
                )
                cell = spec.build_cells(options, spec.sizes(options))[0]
                assert cell.key is not None
                assert cell.key["backend"] == backend
                result = cell.fn(**cell.kwargs)
                # Cells return either a wrapper with .metrics or the
                # SystemMetrics itself (the multirelease grid).
                rows[backend] = rows_as_bits(
                    getattr(result, "metrics", result)
                )
            assert rows["event"] == rows["columnar"], spec.name


class TestModeEquivalence:
    """Every columnar operating mode, bit-identical across seeds/profiles."""

    @pytest.mark.parametrize("seed", [3, 9, 17])
    @pytest.mark.parametrize("mode", COLUMNAR_MODES)
    def test_paper_profile_rows_bit_identical(self, mode, seed):
        event = run_cell("event", mode=mode, seed=seed, requests=250)
        columnar = run_cell("columnar", mode=mode, seed=seed, requests=250)
        assert rows_as_bits(event) == rows_as_bits(columnar)

    @pytest.mark.parametrize("mode", COLUMNAR_MODES)
    def test_calibrated_profile_rows_bit_identical(self, mode):
        # Hangs + shared unavailability under every mode's decision rule.
        event = run_cell(
            "event", mode=mode, profile=calibrated_profile(), requests=250
        )
        columnar = run_cell(
            "columnar", mode=mode, profile=calibrated_profile(),
            requests=250,
        )
        assert rows_as_bits(event) == rows_as_bits(columnar)


def auto_fallback_rows(slug, **overrides):
    """An ``auto`` cell outside the envelope: its rows and counters.

    Asserts it fell back for *slug* alone, and that an explicit
    ``columnar`` run of the same cell refuses, naming *slug*.
    """
    with pytest.raises(ConfigurationError, match=slug):
        run_cell("columnar", **overrides)
    registry = MetricsRegistry()
    auto = run_cell("auto", metrics=registry, **overrides)
    counters = registry.as_dict()["counters"]
    assert counters["backend.fallback_cells"] == 1
    assert counters[f"backend.fallback_reason.{slug}"] == 1
    assert "backend.columnar_cells" not in counters
    return rows_as_bits(auto)


class TestRetryEquivalence:
    """Retry runs on the event kernel: ``auto`` falls back for every
    policy shape, bit-identical to ``event``, and ``columnar`` refuses."""

    @pytest.mark.parametrize("seed", [3, 9, 17])
    @pytest.mark.parametrize("policy", [
        pytest.param(RetryPolicy(max_attempts=2), id="attempts-2"),
        pytest.param(
            RetryPolicy(max_attempts=3, backoff=0.25), id="backoff"
        ),
        pytest.param(
            RetryPolicy(max_attempts=2, attempt_timeout=1.0),
            id="attempt-timeout",
        ),
    ])
    def test_retry_rows_bit_identical(self, policy, seed):
        event = run_cell("event", retry=policy, seed=seed, requests=250)
        auto = auto_fallback_rows(
            "retry", retry=policy, seed=seed, requests=250
        )
        assert rows_as_bits(event) == auto

    def test_retry_calibrated_profile_bit_identical(self):
        policy = RetryPolicy(max_attempts=3, backoff=0.25)
        event = run_cell(
            "event", retry=policy, profile=calibrated_profile(),
            requests=250,
        )
        auto = auto_fallback_rows(
            "retry", retry=policy, profile=calibrated_profile(),
            requests=250,
        )
        assert rows_as_bits(event) == auto


class TestMultiReleaseEquivalence:
    """Release-major resolution for N-release deployments."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("mode", COLUMNAR_MODES)
    def test_n_release_rows_bit_identical(self, n, mode):
        event = run_n_release_simulation(
            n, requests=200, seed=7, mode=mode, backend="event"
        )
        columnar = run_n_release_simulation(
            n, requests=200, seed=7, mode=mode, backend="columnar"
        )
        assert rows_as_bits(event) == rows_as_bits(columnar)

    @pytest.mark.parametrize("seed", [3, 9, 17])
    def test_single_release_outcome_override(self, seed):
        # n=1 has no joint model: the columnar path pre-draws the
        # endpoint's own marginal stream as the outcome-code override.
        event = run_n_release_simulation(
            1, requests=200, seed=seed, backend="event"
        )
        columnar = run_n_release_simulation(
            1, requests=200, seed=seed, backend="columnar"
        )
        assert rows_as_bits(event) == rows_as_bits(columnar)


def single_release(profile):
    """*profile* cut down to its first release."""
    return LatencyProfile(
        name=f"{profile.name}-single",
        demand_difficulty=profile.demand_difficulty,
        release_latencies=tuple(profile.release_latencies[:1]),
    )


class TestSingleReleaseEquivalence:
    """A lone release through the release-pair runner.

    The middleware forces no outcomes on a lone release, so its
    endpoint samples its own marginal on the ``ep0`` stream; the
    columnar backend must pre-draw exactly that stream, one code per
    script row, whatever outcome model the cell was built with.
    """

    MODELS = [
        pytest.param(lambda: chained_model(1), id="chained"),
        pytest.param(lambda: P.correlated_model(1), id="correlated"),
        pytest.param(lambda: P.independent_model(1), id="independent"),
    ]

    @pytest.mark.parametrize("seed", [3, 9])
    @pytest.mark.parametrize("case", COLUMNAR_MODES)
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("profile", [
        pytest.param(paper_profile, id="paper"),
        pytest.param(calibrated_profile, id="calibrated"),
    ])
    def test_rows_bit_identical(self, profile, model, case, seed):
        kwargs = dict(
            joint_model=model(),
            timeout=1.5,
            requests=150,
            seed=seed,
            profile=single_release(profile()),
            mode=case,
        )
        event = run_release_pair_simulation(backend="event", **kwargs)
        columnar = run_release_pair_simulation(backend="columnar", **kwargs)
        assert rows_as_bits(event) == rows_as_bits(columnar)


def parallel_modes(n_releases):
    """Reliability, responsiveness and dynamic k-of-N for k = 1..N."""
    modes = [
        ("reliability", ModeConfig.max_reliability()),
        ("responsiveness", ModeConfig.max_responsiveness()),
    ]
    modes.extend(
        (f"dynamic-k{k}", ModeConfig.dynamic(k))
        for k in range(1, n_releases + 1)
    )
    return [
        pytest.param(n_releases, mode, id=f"N{n_releases}-{name}")
        for name, mode in modes
    ]


def tie_profile(t2_values):
    """Fixed latencies with hangs on every leg: the rank's hard cases.

    Every non-hung arrival of a release is ``start + (0.5 + t2)``, so
    releases with equal *t2_values* tie exactly, and a release whose
    ``0.5 + t2`` equals the TimeOut lands exactly on the cutoff (which
    the kernel must not collect).
    """
    return LatencyProfile(
        name="ties",
        demand_difficulty=WithHangs(Deterministic(0.5), 0.05),
        release_latencies=tuple(
            WithHangs(Deterministic(value), 0.2) for value in t2_values
        ),
    )


class TestTieAndBoundaryEquivalence:
    """Exact arrival ties, hangs and arrivals on the cutoff, IEEE-bit.

    The parallel kernel ranks arrivals by pairwise comparisons instead
    of a stable sort; these cells force every tie-break it makes —
    equal arrivals across releases, within the cutoff and exactly on
    it — under each parallel mode.  The weakly correlated run-4 chain
    makes CR/NER mismatches (and so adjudication draws) common.
    """

    CASES = [
        # All releases tie, inside the cutoff.
        pytest.param((0.5,) * 5, 1.5, id="tied-within"),
        # Releases 0 and 2 sit exactly on the cutoff; 1 and 4 tie inside.
        pytest.param((1.0, 0.5, 1.0, 0.75, 0.5), 1.5, id="on-cutoff"),
        # The same latencies all inside a wider cutoff, with ties.
        pytest.param((1.0, 0.5, 1.0, 0.75, 0.5), 2.0, id="tied-pairs"),
    ]

    @pytest.mark.parametrize("t2_values,timeout", CASES)
    @pytest.mark.parametrize(
        "n_releases,mode",
        parallel_modes(2) + parallel_modes(3) + parallel_modes(5),
    )
    def test_rows_bit_identical(self, n_releases, mode, t2_values, timeout):
        kwargs = dict(
            joint_model=chained_model(4),
            timeout=timeout,
            requests=300,
            seed=13,
            profile=tie_profile(t2_values[:n_releases]),
            mode=mode,
        )
        event = run_release_pair_simulation(backend="event", **kwargs)
        columnar = run_release_pair_simulation(backend="columnar", **kwargs)
        assert rows_as_bits(event) == rows_as_bits(columnar)

    def test_tie_break_draws_match_scalar_draws(self):
        # The kernel draws integers(bound) once per mismatching demand;
        # the resolver draws the whole array of bounds in one call.
        # Bounds 1-5 mixed, a third of the arrays all 2; the
        # generator's next draw shows its state is the same too.
        layout = np.random.default_rng(2024)
        for case in range(200):
            size = int(layout.integers(1, 401))
            if case % 3 == 0:
                bounds = np.full(size, 2, dtype=np.intp)
            else:
                bounds = layout.integers(1, 6, size=size).astype(np.intp)
            scalar = np.random.default_rng(case)
            expected = [int(scalar.integers(int(b))) for b in bounds]
            batched = np.random.default_rng(case)
            drawn = columnar._bounded_draws(batched, bounds)
            assert drawn.tolist() == expected, case
            assert batched.integers(2**62) == scalar.integers(2**62), case


class TestEnvelope:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            run_cell("batch")

    def test_explicit_columnar_rejects_tracing(self):
        with pytest.raises(ConfigurationError, match="trac"):
            run_cell("columnar", tracer=MemoryTracer())

    def test_explicit_columnar_rejects_retry_outside_reliability(self):
        with pytest.raises(ConfigurationError, match="retry"):
            run_cell(
                "columnar",
                retry=RetryPolicy(max_attempts=2),
                mode=ModeConfig.max_responsiveness(),
            )

    def test_explicit_columnar_rejects_other_adjudicators(self):
        with pytest.raises(ConfigurationError, match="adjudicator"):
            run_cell("columnar", adjudicator=FastestValidAdjudicator())

    def test_error_reports_all_reasons(self):
        with pytest.raises(ConfigurationError) as err:
            run_cell(
                "columnar",
                retry=RetryPolicy(max_attempts=2),
                mode=RANDOM_ORDER,
                adjudicator=FastestValidAdjudicator(),
                tracer=MemoryTracer(),
            )
        message = str(err.value)
        assert "retry" in message
        assert "random-order" in message
        assert "adjudicator" in message
        assert "trac" in message


class TestInvalidTimeout:
    """Every backend refuses a TimeOut that is not positive, as the
    event kernel's SystemTimingPolicy does."""

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("backend", ["event", "columnar", "auto"])
    @pytest.mark.parametrize("releases", [2, 3])
    def test_rejected_on_every_backend(self, releases, backend, timeout):
        with pytest.raises(ValidationError, match="timeout"):
            if releases == 2:
                run_release_pair_simulation(
                    P.correlated_model(1), timeout=timeout, requests=50,
                    seed=3, backend=backend,
                )
            else:
                run_n_release_simulation(
                    releases, timeout=timeout, requests=50, seed=3,
                    backend=backend,
                )


class TestEnvelopeProperty:
    """unsupported_reasons() == [] exactly when columnar resolution
    succeeds, over a grid of configurations (envelope exhaustiveness)."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("retry", [
        pytest.param(None, id="no-retry"),
        pytest.param(RetryPolicy(max_attempts=2), id="retry"),
    ])
    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("other_adjudicator", [False, True])
    def test_reason_absence_iff_resolution_succeeds(
        self, mode, retry, traced, other_adjudicator
    ):
        # Draw the runner's script, then ask the authority.
        profile = paper_profile()
        script = build_demand_script(
            P.correlated_model(1),
            profile.demand_difficulty,
            list(profile.release_latencies),
            60,
            SeedSequenceFactory(9),
            draws=(
                60 * (1 + retry.max_attempts)
                if retry is not None
                else None
            ),
        )
        reasons = columnar.unsupported_reasons(
            script=script,
            mode=mode,
            adjudicator=(
                FastestValidAdjudicator() if other_adjudicator else None
            ),
            tracing=traced,
            retry=retry,
        )
        kwargs = dict(retry=retry, requests=60)
        if traced:
            kwargs["tracer"] = MemoryTracer()
        if other_adjudicator:
            kwargs["adjudicator"] = FastestValidAdjudicator()
        if not reasons:
            run_cell("columnar", mode=mode, **kwargs)  # must not raise
        else:
            with pytest.raises(ConfigurationError):
                run_cell("columnar", mode=mode, **kwargs)


class TestAutoFallback:
    def _counters(self, **overrides):
        registry = MetricsRegistry()
        run_cell("auto", metrics=registry, **overrides)
        return registry.as_dict()["counters"]

    def _fallbacks(self, **overrides):
        return self._counters(**overrides).get("backend.fallback_cells", 0)

    def test_auto_in_envelope_uses_columnar(self):
        registry = MetricsRegistry()
        auto = run_cell("auto", metrics=registry)
        counters = registry.as_dict()["counters"]
        assert counters["backend.columnar_cells"] == 1
        assert rows_as_bits(auto) == rows_as_bits(run_cell("event"))

    @pytest.mark.parametrize("mode", COLUMNAR_MODES)
    def test_auto_resolves_every_mode_columnar(self, mode):
        counters = self._counters(mode=mode, requests=120)
        assert counters["backend.columnar_cells"] == 1
        assert "backend.fallback_cells" not in counters

    def test_auto_falls_back_for_tracing(self):
        tracer = MemoryTracer()
        assert self._fallbacks(tracer=tracer) == 1
        # ... and the event kernel really ran: the trace has events.
        assert tracer.events

    def test_fallback_reason_counters_are_labeled(self):
        counters = self._counters(
            tracer=MemoryTracer(),
            adjudicator=FastestValidAdjudicator(),
        )
        assert counters["backend.fallback_cells"] == 1
        assert counters["backend.fallback_reason.tracing"] == 1
        assert counters["backend.fallback_reason.adjudicator"] == 1

    def test_auto_retry_result_matches_event_retry(self):
        policy = RetryPolicy(max_attempts=2)
        auto = run_cell("auto", retry=policy)
        event = run_cell("event", retry=RetryPolicy(max_attempts=2))
        assert rows_as_bits(auto) == rows_as_bits(event)

    def test_auto_random_order_result_matches_event(self):
        event = run_cell("event", mode=RANDOM_ORDER)
        assert rows_as_bits(event) == auto_fallback_rows(
            "random-order", mode=RANDOM_ORDER
        )

    def test_traced_grid_cells_downgrade_explicit_columnar(self, tmp_path):
        cells = release_pair_cells(
            "table5", "correlated", seed=3, requests=50,
            trace_dir=str(tmp_path), backend="columnar",
        )
        assert all(cell.kwargs["backend"] == "event" for cell in cells)
        assert all(cell.key is None for cell in cells)

    def test_untraced_grid_cells_keep_columnar_key(self):
        cells = release_pair_cells(
            "table5", "correlated", seed=3, requests=50,
            backend="columnar",
        )
        assert all(cell.kwargs["backend"] == "columnar" for cell in cells)
        assert all(cell.key["backend"] == "columnar" for cell in cells)
