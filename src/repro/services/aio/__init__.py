"""Asyncio service substrate (``repro.services.aio``).

The paper's managed-upgrade middleware (§4.1–4.2) re-run on real
asyncio tasks instead of kernel callbacks: the same message types,
operating modes and adjudication rules as :mod:`repro.core` /
:mod:`repro.services`, which stay the one definition of each concept.
The package holds only what the ``service_load`` experiment runs:

* :class:`AsyncEndpoint` — one release, serving budgeted invocations;
* :class:`AsyncUpgradeMiddleware` — the four operating modes as
  coroutine fan-out over a pre-drawn demand script;
* :func:`run_load` — a bounded producer/worker pipeline that drives
  N demands through the middleware and streams them into Table-5/6
  rows (:class:`StreamingReducer`);
* the deterministic virtual-clock loop
  (:mod:`repro.services.aio.clock`), on which scripted runs are
  bit-identical across repetitions and concurrency limits and a lost
  response raises :class:`VirtualTimeDeadlock` instead of hanging.

The ``service_load`` experiment cross-checks the streamed rows against
the simulation backends.
"""

from repro.services.aio.clock import (
    VirtualClockEventLoop,
    VirtualTimeDeadlock,
    checked_sleep,
    forever,
    run_virtual,
)
from repro.services.aio.endpoint import AsyncEndpoint
from repro.services.aio.middleware import (
    AsyncDemandReport,
    AsyncUpgradeMiddleware,
    DemandSummary,
    ReleaseSummary,
)
from repro.services.aio.load import (
    LoadResult,
    StreamingReducer,
    run_load,
)

__all__ = [
    "AsyncDemandReport",
    "AsyncEndpoint",
    "AsyncUpgradeMiddleware",
    "DemandSummary",
    "LoadResult",
    "ReleaseSummary",
    "StreamingReducer",
    "VirtualClockEventLoop",
    "VirtualTimeDeadlock",
    "checked_sleep",
    "forever",
    "run_load",
    "run_virtual",
]
