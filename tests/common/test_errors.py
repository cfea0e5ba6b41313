"""Unit tests for the exception hierarchy."""

import pytest

from repro.common.errors import (
    ConfigurationError,
    EvidentFailureError,
    InferenceError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    SimulationError,
    UnknownOperationError,
    ValidationError,
    WorkerCrashError,
)


def test_all_derive_from_repro_error():
    for exc in (
        ConfigurationError,
        ValidationError,
        SimulationError,
        InferenceError,
        ServiceError,
        ServiceUnavailableError,
        EvidentFailureError,
        UnknownOperationError,
        WorkerCrashError,
    ):
        assert issubclass(exc, ReproError)


def test_validation_error_is_value_error():
    # Callers used to ValueError semantics must be able to catch it.
    assert issubclass(ValidationError, ValueError)
    with pytest.raises(ValueError):
        raise ValidationError("bad input")


def test_service_errors_are_service_errors():
    for exc in (ServiceUnavailableError, EvidentFailureError,
                UnknownOperationError):
        assert issubclass(exc, ServiceError)
