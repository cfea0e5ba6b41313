"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause
while still being able to discriminate the failing subsystem.
"""


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An object was configured with inconsistent or incomplete settings."""


class ValidationError(ReproError, ValueError):
    """A caller supplied an argument outside its documented domain."""


class SimulationError(ReproError):
    """The discrete-event kernel detected an inconsistent state.

    Examples: scheduling an event in the past, running a simulator that has
    already been stopped, or an event handler raising during dispatch.
    """


class WorkerCrashError(ReproError):
    """A process-pool worker died before the grid's cells finished.

    Raised by :func:`~repro.runtime.parallel.run_cells` with the
    executor's ``BrokenProcessPool`` as its cause; the message names
    every cell whose result was not collected.  Results collected before
    the crash stay committed, so re-running the grid with the same cache
    or run store executes only the cells named.
    """


class InferenceError(ReproError):
    """A Bayesian assessment could not be carried out.

    Raised e.g. when a posterior underflows everywhere on the grid (the
    observations are impossible under the prior's support) or when a
    percentile is requested from an assessor that has seen no prior.
    """


class ServiceError(ReproError):
    """Base class for failures signalled by the simulated WS substrate."""


class ServiceUnavailableError(ServiceError):
    """No response was collected from any deployed release within TimeOut.

    Mirrors the middleware rule of Section 5.2.1 of the paper: *"if no
    response has been collected the middleware returns a response 'Web
    Service unavailable'"*.
    """


class EvidentFailureError(ServiceError):
    """All collected responses were evidently incorrect.

    Mirrors the middleware rule: *"if all collected responses are evidently
    incorrect then the middleware raises an exception"*.
    """


class UnknownOperationError(ServiceError):
    """A consumer invoked an operation absent from the service's WSDL."""
