"""Virtual-clock asyncio event loop for deterministic service runs.

The asyncio substrate (:mod:`repro.services.aio`) runs the same managed
upgrade semantics as the discrete-event kernel, but on real coroutines
and tasks.  Determinism then hinges on the clock: with the wall clock,
scheduler jitter reorders timer callbacks between runs.  The
:class:`VirtualClockEventLoop` removes the wall clock entirely — it is
a stock :class:`asyncio.SelectorEventLoop` whose selector never polls
the OS.  When the loop would block waiting for the earliest timer, the
selector instead *advances virtual time by exactly that wait* and
returns no I/O events.  Every ``await asyncio.sleep(d)`` therefore
completes in zero wall time at virtual time ``now + d``, and the
callback interleaving is a pure function of the program — bit-identical
across runs and machines.

Two consequences worth knowing:

* **No real I/O.**  Sockets and subprocesses never become readable
  because the selector never polls; the loop is for simulated services
  only.  Cross-thread wakeups (``call_soon_threadsafe``) are likewise
  unsupported — the load harness is single-threaded.
* **Deadlocks are loud.**  If the loop has no ready callbacks and no
  scheduled timers while a task still awaits (a lost response with no
  timeout anywhere), a real loop would block forever; this one raises
  :class:`VirtualTimeDeadlock` naming the situation, which is exactly
  the delivery-guarantee violation the async property tests hunt for.
"""

import asyncio
import math
import selectors
from typing import Any, Coroutine, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class VirtualTimeDeadlock(RuntimeError):
    """The virtual-clock loop has tasks pending but nothing scheduled.

    Raised instead of blocking forever: some coroutine awaits an event
    that no timer or ready callback can ever produce (e.g. a response
    lost in transport with no timeout guarding the wait).
    """


class _VirtualSelector(selectors.SelectSelector):
    """A selector that advances a virtual clock instead of polling.

    ``select(timeout)`` is called by the event loop with the wait until
    the earliest scheduled timer (``0`` when callbacks are already
    ready, ``None`` when there is nothing to do at all).  No syscall is
    made; the virtual clock absorbs the wait.
    """

    def __init__(self) -> None:
        super().__init__()
        self.virtual_now = 0.0

    def select(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[selectors.SelectorKey, int]]:
        if timeout is None:
            raise VirtualTimeDeadlock(
                "virtual-clock loop would wait forever: tasks are "
                "pending but no timer or callback is scheduled (a "
                "response was lost with no timeout guarding the await)"
            )
        if timeout > 0.0:
            advanced = self.virtual_now + timeout
            if advanced == self.virtual_now:
                # Pathological float regime (clock so large the wait is
                # below one ulp): force progress so the loop cannot spin.
                advanced = math.nextafter(self.virtual_now, math.inf)
            self.virtual_now = advanced
        return []


class VirtualClockEventLoop(asyncio.SelectorEventLoop):
    """A selector event loop running on virtual time.

    ``loop.time()`` reads the virtual clock (seconds since loop
    creation); timers behave normally against it.  All other loop
    machinery is stock asyncio.
    """

    def __init__(self) -> None:
        selector = _VirtualSelector()
        super().__init__(selector)
        self._virtual_selector = selector

    def time(self) -> float:
        return self._virtual_selector.virtual_now


def run_virtual(main: Coroutine[Any, Any, T]) -> T:
    """Run *main* to completion on a fresh virtual-clock loop.

    The async analogue of ``Simulator.run()``: returns *main*'s result
    after all its awaited work has resolved, with the whole run
    occupying zero simulated-to-wall time conversion — a million
    seconds of simulated latency cost only the callback processing.
    """
    loop = VirtualClockEventLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


async def forever() -> None:
    """Await an event that never fires (a lost message, a hang).

    Under a caller's ``asyncio.wait_for``/``asyncio.wait`` deadline the
    await is cancelled normally; with no deadline anywhere the
    virtual-clock loop raises :class:`VirtualTimeDeadlock` rather than
    hanging — silence is a test failure, not a timeout in CI.
    """
    await asyncio.Event().wait()


async def checked_sleep(delay: float) -> None:
    """``asyncio.sleep`` that treats non-finite delays as a hang.

    The latency laws can produce ``inf`` (``WithHangs``); sleeping
    ``inf`` would overflow the loop's timer arithmetic, so it routes to
    :func:`forever` — same semantics as the kernel endpoint's
    "nothing is ever delivered" branch.
    """
    if not math.isfinite(delay):
        await forever()
        return
    if delay > 0.0:
        await asyncio.sleep(delay)


__all__ = [
    "VirtualClockEventLoop",
    "VirtualTimeDeadlock",
    "checked_sleep",
    "forever",
    "run_virtual",
]
