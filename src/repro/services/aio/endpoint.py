"""Deployed service releases on the asyncio substrate.

:class:`AsyncEndpoint` mirrors
:class:`~repro.services.endpoint.ServiceEndpoint`: one operational
release with a WSDL, a stochastic
:class:`~repro.simulation.release_model.ReleaseBehaviour` and an
online/offline flag.  The asyncio-specific part is **budgeted
invocation**: the middleware hands each invocation the release's
collection window (its *budget*), and the endpoint classifies the
response by pure duration arithmetic *before* sleeping —

    ``d = demand_difficulty + T2``;
    collected iff ``d < budget`` (strictly).

The strict ``<`` reproduces the kernel's tie rule (the demand's timeout
event is scheduled before any response event, so at equal timestamps
the timeout wins).  Because the classification never consults the
clock, it is identical for every concurrency limit — the property the
cross-check against the event kernel rests on.
"""

import math
from typing import Optional, Tuple

import numpy as np

from repro.services.aio.clock import checked_sleep, forever
from repro.services.message import (
    RequestMessage,
    ResponseMessage,
    fault_response,
    result_response,
)
from repro.simulation.outcomes import Outcome
from repro.simulation.release_model import ReleaseBehaviour
from repro.services.wsdl import WsdlDescription


class AsyncEndpoint:
    """One operational release of a WS, served by coroutines.

    Parameters
    ----------
    wsdl / behaviour:
        As for the sync endpoint.
    rng:
        Randomness for the bare :meth:`call` — outcome and T2 draws.
        The middleware's invocations pass ``t2`` and ``forced_outcome``
        from its demand script and never touch it, so a middleware run
        is deterministic whatever this generator is.
    """

    def __init__(
        self,
        wsdl: WsdlDescription,
        behaviour: ReleaseBehaviour,
        rng: Optional[np.random.Generator] = None,
    ):
        self.wsdl = wsdl
        self.behaviour = behaviour
        self._rng = rng
        self.online = True
        self.invocations = 0
        self.responses = 0

    @property
    def name(self) -> str:
        """Display name, e.g. ``"Web-Service 1.0"``."""
        return f"{self.wsdl.service_name} {self.wsdl.release}"

    # ------------------------------------------------------------------
    # administrative control
    # ------------------------------------------------------------------

    def take_offline(self) -> None:
        """Stop responding to new invocations (denial of service)."""
        self.online = False

    # ------------------------------------------------------------------
    # invocation
    # ------------------------------------------------------------------

    def _resolve(
        self,
        request: RequestMessage,
        reference_answer: object,
        forced_outcome: Optional[Outcome],
        demand_difficulty: float,
        t2: Optional[float],
    ) -> Tuple[Optional[ResponseMessage], float]:
        """Decide response and duration without sleeping.

        Returns ``(response, d)``; ``response`` is None for an offline
        release and ``d`` non-finite for a hang — both mean "nothing is
        ever delivered" and the caller's budget is the only signal.
        """
        self.invocations += 1
        if not self.online:
            return None, math.inf
        if not self.wsdl.has_operation(request.operation):
            # Unknown operation: an immediate, evident fault (d = 0).
            return (
                fault_response(
                    request,
                    f"unknown operation {request.operation!r}",
                    self.name,
                ),
                0.0,
            )
        if forced_outcome is not None:
            outcome = forced_outcome
        else:
            outcome = self.behaviour.outcome_distribution.sample(
                self._require_rng()
            )
        if t2 is None:
            t2 = self.behaviour.latency.sample(self._require_rng())
        d = demand_difficulty + t2
        if outcome is Outcome.EVIDENT_FAILURE:
            response = fault_response(request, "internal error", self.name)
        else:
            response = result_response(
                request,
                self.behaviour.payload_for(outcome, reference_answer),
                self.name,
            )
        return response, d

    def _require_rng(self) -> np.random.Generator:
        if self._rng is None:
            raise RuntimeError(
                f"endpoint {self.name!r} has no generator: call() "
                "needs an rng; invoke_within() without one must pass "
                "t2 and forced_outcome"
            )
        return self._rng

    async def invoke_within(
        self,
        request: RequestMessage,
        budget: float,
        *,
        reference_answer: object = None,
        forced_outcome: Optional[Outcome] = None,
        demand_difficulty: float = 0.0,
        t2: Optional[float] = None,
    ) -> Optional[Tuple[ResponseMessage, float]]:
        """Serve one invocation inside a collection window.

        Returns ``(response, d)`` after sleeping ``d`` when the
        response lands strictly inside *budget*; otherwise sleeps the
        whole *budget* and returns None (response missed the window:
        offline, hang, or simply too slow).  Either way the coroutine
        occupies exactly ``min(d, budget)`` of loop time, so a gather
        over all releases finishes at the demand's close.
        """
        response, d = self._resolve(
            request, reference_answer, forced_outcome, demand_difficulty, t2
        )
        if response is not None and d < budget:
            await checked_sleep(d)
            self.responses += 1
            return response, d
        await checked_sleep(budget)
        return None

    async def call(
        self,
        request: RequestMessage,
        *,
        reference_answer: object = None,
    ) -> ResponseMessage:
        """The bare endpoint: no middleware, no timeout discipline.

        Draws the outcome and T2 from the endpoint's generator.  An
        offline or hanging release never resolves — the caller's own
        deadline (``asyncio.wait_for``) governs, just as for a real
        unreachable WS.  On the virtual clock an unguarded lost response
        raises :class:`~repro.services.aio.clock.VirtualTimeDeadlock`.
        """
        response, d = self._resolve(request, reference_answer, None, 0.0, None)
        if response is None or not math.isfinite(d):
            await forever()
        await checked_sleep(d)
        self.responses += 1
        assert response is not None
        return response

    def __repr__(self) -> str:
        state = "online" if self.online else "OFFLINE"
        return (
            f"AsyncEndpoint(name={self.name!r}, {state}, "
            f"invocations={self.invocations})"
        )


__all__ = ["AsyncEndpoint"]
