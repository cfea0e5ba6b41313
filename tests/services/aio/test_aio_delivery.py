"""Delivery-guarantee and liveness properties of the async substrate.

The contract under test: every call resolves to exactly one non-None
response — or, for a bare endpoint with no deadline, fails loudly on
the virtual clock — and a resolved call leaves no live tasks behind.
The load harness accounts for every demand it delivers.
"""

import asyncio
import math

import numpy as np
import pytest

from repro.common.seeding import spawn_generator
from repro.obs.metrics import MetricsRegistry
from repro.runtime.sampling import DemandScript
from repro.services.aio import (
    AsyncEndpoint,
    AsyncUpgradeMiddleware,
    VirtualTimeDeadlock,
    run_load,
    run_virtual,
)
from repro.services.message import RequestMessage
from repro.services.wsdl import default_wsdl
from repro.simulation.correlation import OutcomeDistribution
from repro.simulation.distributions import Deterministic
from repro.simulation.outcomes import OUTCOME_ORDER, Outcome
from repro.simulation.release_model import ReleaseBehaviour
from repro.simulation.timing import SystemTimingPolicy


def _always_correct_behaviour(latency=0.5):
    return ReleaseBehaviour(
        "WS 1.0",
        OutcomeDistribution(1.0, 0.0, 0.0),
        Deterministic(latency),
    )


def _endpoint(latency=0.5, release="1.0"):
    return AsyncEndpoint(
        default_wsdl("WS", "node-1", release=release),
        _always_correct_behaviour(latency),
        rng=spawn_generator(0),
    )


def _script(requests, latencies, evident_every=0):
    """Constant latencies; every release correct except that demands
    0, k, 2k, ... fail evidently on all releases (k = *evident_every*)."""
    codes = np.zeros((requests, len(latencies)), dtype=np.int64)
    if evident_every:
        codes[::evident_every] = OUTCOME_ORDER.index(Outcome.EVIDENT_FAILURE)
    return DemandScript(
        requests=requests,
        t1=np.zeros(requests),
        t2=[np.full(requests, latency) for latency in latencies],
        outcome_codes=codes,
    )


def _middleware(endpoints, script, mode=None):
    return AsyncUpgradeMiddleware(
        endpoints,
        SystemTimingPolicy(timeout=2.0, adjudication_delay=0.1),
        adjudication_seed=7,
        script=script,
        mode=mode,
    )


def _other_tasks():
    current = asyncio.current_task()
    return [task for task in asyncio.all_tasks() if task is not current]


def test_online_endpoint_call_resolves_after_its_latency():
    async def main():
        endpoint = _endpoint(latency=0.5)
        loop = asyncio.get_running_loop()
        start = loop.time()
        response = await endpoint.call(
            RequestMessage(operation="operation1"), reference_answer=3
        )
        assert response.result == 3
        assert loop.time() - start == 0.5
        assert (endpoint.invocations, endpoint.responses) == (1, 1)

    run_virtual(main())


def test_offline_endpoint_call_times_out_and_leaves_no_tasks():
    """A caller's deadline cancels the call to a silent release; the
    silence becomes a timeout, not a deadlock or a leaked task."""

    async def main():
        endpoint = _endpoint()
        endpoint.take_offline()
        loop = asyncio.get_running_loop()
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(
                endpoint.call(RequestMessage(operation="operation1")),
                timeout=2.0,
            )
        assert loop.time() == 2.0
        # wait_for cancellation needs a cycle to finalize the inner task.
        await asyncio.sleep(0)
        assert _other_tasks() == []
        assert endpoint.responses == 0

    run_virtual(main())


def test_offline_endpoint_call_without_deadline_deadlocks_loudly():
    endpoint = _endpoint()
    endpoint.take_offline()
    with pytest.raises(VirtualTimeDeadlock):
        run_virtual(endpoint.call(RequestMessage(operation="operation1")))


def test_middleware_delivers_fault_when_all_releases_silent():
    """The middleware's delivery guarantee: all releases offline still
    produces exactly one (evident) response at TimeOut + dT."""

    async def main():
        endpoints = [_endpoint(0.5, "1.0"), _endpoint(0.7, "1.1")]
        for endpoint in endpoints:
            endpoint.take_offline()
        middleware = _middleware(endpoints, _script(1, [0.5, 0.7]))
        loop = asyncio.get_running_loop()
        start = loop.time()
        report = await middleware.call(
            RequestMessage(operation="operation1"), demand_index=0
        )
        assert report.response.is_fault
        assert "unavailable" in report.response.fault
        assert loop.time() - start == pytest.approx(2.1)
        assert _other_tasks() == []

    run_virtual(main())


def test_middleware_resolves_once_per_demand_under_concurrency():
    async def main():
        middleware = _middleware(
            [_endpoint(0.5, "1.0"), _endpoint(0.7, "1.1")],
            _script(20, [0.5, 0.7]),
        )
        reports = await asyncio.gather(*(
            middleware.call(
                RequestMessage(operation="operation1", arguments=(i,)),
                demand_index=i,
                reference_answer=i,
            )
            for i in range(20)
        ))
        assert len(reports) == 20
        assert all(not report.response.is_fault for report in reports)
        assert middleware.demands == 20
        assert _other_tasks() == []

    run_virtual(main())


def test_load_run_reports_to_an_attached_registry():
    # Above 20k demands the harness samples every second queue wait.
    requests, queue_capacity = 20_001, 16
    registry = MetricsRegistry()
    load = run_load(
        _middleware([_endpoint()], _script(requests, [0.5], evident_every=7)),
        requests,
        concurrency=8,
        queue_capacity=queue_capacity,
        registry=registry,
    )
    snapshot = registry.as_dict()
    stride = max(1, requests // 10_000)
    assert stride == 2
    assert snapshot["counters"]["aio.demands"] == requests
    assert load.faults == math.ceil(requests / 7)
    assert snapshot["counters"]["aio.faults"] == load.faults
    assert snapshot["histograms"]["aio.queue_wait_seconds"]["count"] == (
        math.ceil(requests / stride)
    )
    assert 0 < snapshot["gauges"]["aio.queue_depth"] <= queue_capacity
