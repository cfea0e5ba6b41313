"""Determinism of scripted virtual-clock load runs.

A scripted middleware's collection decisions are pure duration
arithmetic keyed by demand index, so the reduced Table-5/6 rows must be
bit-identical across repetitions and across every backpressure
configuration — and identical to the log-based reduction of the same
run with a monitor attached.
"""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.common.seeding import SeedSequenceFactory, spawn_generator
from repro.core.modes import ModeConfig, SequentialOrder
from repro.core.monitor import MonitoringSubsystem
from repro.experiments import paper_params as P
from repro.experiments.event_sim import (
    joint_model,
    metrics_from_log,
    paper_profile,
)
from repro.runtime.sampling import build_demand_script
from repro.services.aio import AsyncEndpoint, AsyncUpgradeMiddleware, run_load
from repro.services.wsdl import default_wsdl
from repro.simulation.release_model import ReleaseBehaviour
from repro.simulation.timing import SystemTimingPolicy

REQUESTS = 1500
SEED = 11


def _middleware(mode: ModeConfig, monitor=None) -> AsyncUpgradeMiddleware:
    """A fresh scripted two-release middleware (middleware is stateful,
    so every run gets its own)."""
    model = joint_model("correlated", 2)
    profile = paper_profile()
    seeds = SeedSequenceFactory(SEED)
    script = build_demand_script(
        model,
        profile.demand_difficulty,
        profile.release_latencies,
        REQUESTS,
        seeds,
    )
    endpoints = []
    for index, latency in enumerate(profile.release_latencies):
        marginal = (
            model.marginal_first() if index == 0 else model.marginal_second()
        )
        endpoints.append(
            AsyncEndpoint(
                default_wsdl(
                    "Web-Service", f"node-{index + 1}", release=f"1.{index}"
                ),
                ReleaseBehaviour(f"Web-Service 1.{index}", marginal, latency),
            )
        )
    return AsyncUpgradeMiddleware(
        endpoints,
        SystemTimingPolicy(
            timeout=2.0, adjudication_delay=P.ADJUDICATION_DELAY
        ),
        adjudication_seed=seeds.child_seed("middleware"),
        mode=mode,
        script=script,
        monitor=monitor,
    )


def _fingerprint(mode: ModeConfig, concurrency: int, queue: int) -> str:
    load = run_load(
        _middleware(mode),
        REQUESTS,
        concurrency=concurrency,
        queue_capacity=queue,
    )
    return json.dumps(load.metrics.all_rows(), sort_keys=True)


def test_bit_identical_across_concurrency_and_queue_limits():
    for mode in (
        ModeConfig.max_reliability(),
        ModeConfig.max_responsiveness(),
        ModeConfig.sequential(),
    ):
        fingerprints = {
            _fingerprint(mode, concurrency, queue)
            for concurrency, queue in ((1, 4), (7, 3), (64, 128))
        }
        assert len(fingerprints) == 1, mode


def test_bit_identical_across_repetitions():
    mode = ModeConfig.dynamic(1)
    first = _fingerprint(mode, 16, 32)
    second = _fingerprint(mode, 16, 32)
    assert first == second


def test_streaming_reduction_matches_log_reduction():
    """With a monitor attached at concurrency=1 the streaming reducer
    and ``metrics_from_log`` must agree exactly."""
    monitor = MonitoringSubsystem(rng=spawn_generator(99))
    middleware = _middleware(ModeConfig.max_reliability(), monitor=monitor)
    load = run_load(middleware, REQUESTS, concurrency=1, queue_capacity=4)
    from_log = metrics_from_log(monitor.log, middleware.release_names())
    assert json.dumps(load.metrics.all_rows(), sort_keys=True) == json.dumps(
        from_log.all_rows(), sort_keys=True
    )


def test_random_order_sequential_mode_is_refused():
    with pytest.raises(ConfigurationError, match="'random'"):
        _middleware(ModeConfig.sequential(SequentialOrder.RANDOM))
