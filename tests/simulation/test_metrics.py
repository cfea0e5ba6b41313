"""Unit tests for the Table-5/6 metrics collectors."""

import math
import pickle
import struct

import numpy as np
import pytest

from repro.simulation.metrics import (
    OutcomeCounts,
    ReleaseMetrics,
    SystemMetrics,
)
from repro.simulation.outcomes import OUTCOME_ORDER, Outcome


class TestOutcomeCounts:
    def test_record_and_total(self):
        counts = OutcomeCounts()
        counts.record(Outcome.CORRECT)
        counts.record(Outcome.CORRECT)
        counts.record(Outcome.EVIDENT_FAILURE)
        counts.record(Outcome.NON_EVIDENT_FAILURE)
        assert counts.as_dict() == {"CR": 2, "EER": 1, "NER": 1, "Total": 4}


class TestReleaseMetrics:
    def test_met_over_collected_responses(self):
        metrics = ReleaseMetrics("Rel1")
        metrics.record_response(Outcome.CORRECT, 1.0)
        metrics.record_response(Outcome.EVIDENT_FAILURE, 2.0)
        metrics.record_no_response()
        assert metrics.mean_execution_time == pytest.approx(1.5)
        assert metrics.no_response == 1
        assert metrics.total_requests == 3

    def test_availability_and_reliability(self):
        metrics = ReleaseMetrics("Rel1")
        metrics.record_response(Outcome.CORRECT, 1.0)
        metrics.record_response(Outcome.NON_EVIDENT_FAILURE, 1.0)
        metrics.record_no_response()
        metrics.record_no_response()
        assert metrics.availability == pytest.approx(0.5)
        assert metrics.reliability == pytest.approx(0.25)

    def test_empty_metrics_are_nan(self):
        metrics = ReleaseMetrics("Rel1")
        assert math.isnan(metrics.mean_execution_time)
        assert math.isnan(metrics.availability)

    def test_no_response_may_carry_system_time(self):
        # The system row pins time at TimeOut + dT even with no response.
        metrics = ReleaseMetrics("System")
        metrics.record_no_response(execution_time=1.6)
        assert metrics.mean_execution_time == pytest.approx(1.6)

    def test_as_row_format(self):
        metrics = ReleaseMetrics("Rel1")
        metrics.record_response(Outcome.CORRECT, 1.0)
        row = metrics.as_row()
        assert set(row) == {
            "MET", "CR", "EER", "NER", "Total", "NRDT", "Total requests",
        }


def _fields(metrics):
    """Every field of a row, floats as IEEE bits, with its Python type."""
    def canon(value):
        if isinstance(value, float):
            return ("float", struct.pack("<d", value).hex())
        return (type(value).__name__, value)

    return {
        "name": metrics.name,
        "counts": {
            key: canon(value) for key, value in vars(metrics.counts).items()
        },
        **{
            key: canon(value) for key, value in vars(metrics).items()
            if key not in ("name", "counts")
        },
    }


class TestFromMasks:
    """The columnar row builder against the event path's scalar loop."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("code_dtype", [np.int8, np.int64])
    def test_equals_record_loop(self, seed, code_dtype):
        rng = np.random.default_rng(seed)
        requests = 500
        collected = rng.random(requests) < 0.7
        codes = rng.integers(0, 3, requests).astype(code_dtype)
        times = rng.exponential(0.8, requests)
        scalar = ReleaseMetrics("Rel1")
        for hit, code, time in zip(collected, codes, times):
            if hit:
                scalar.record_response(OUTCOME_ORDER[int(code)], float(time))
            else:
                scalar.record_no_response()
        built = ReleaseMetrics.from_masks(
            "Rel1", collected, codes, times[collected], requests,
        )
        assert _fields(built) == _fields(scalar)
        # Same fields in the same order: the pickled bytes match too.
        assert pickle.dumps(built) == pickle.dumps(scalar)

    def test_system_row_pins_times_of_unanswered_demands(self):
        collected = np.array([True, False, True, False])
        codes = np.array([0, 1, 2, 1], dtype=np.int8)
        times = np.array([1.0, 1.6, 1.25, 1.6])
        scalar = ReleaseMetrics("System")
        for hit, code, time in zip(collected, codes, times):
            if hit:
                scalar.record_response(OUTCOME_ORDER[int(code)], float(time))
            else:
                scalar.record_no_response(execution_time=float(time))
        built = ReleaseMetrics.from_masks("System", collected, codes, times, 4)
        assert _fields(built) == _fields(scalar)

    def test_nothing_collected(self):
        built = ReleaseMetrics.from_masks(
            "Rel2", np.zeros(3, dtype=bool), np.ones(3, dtype=np.int8),
            np.empty(0), 3,
        )
        assert _fields(built) == _fields(ReleaseMetrics("Rel2")) | {
            "no_response": ("int", 3), "total_requests": ("int", 3),
        }
        assert math.isnan(built.mean_execution_time)

    def test_uncovered_demands_are_not_requests(self):
        # Sequential mode: a release never invoked on a demand does not
        # count it at all.
        built = ReleaseMetrics.from_masks(
            "Rel2", np.array([True, False, False]),
            np.array([2, 0, 0], dtype=np.int8), np.array([0.5]), 2,
        )
        assert built.counts.as_dict() == {
            "CR": 0, "EER": 0, "NER": 1, "Total": 1,
        }
        assert (built.no_response, built.total_requests) == (1, 2)


class TestSystemMetrics:
    def test_consistency_invariant_holds(self):
        metrics = SystemMetrics(releases=[ReleaseMetrics("Rel1")])
        metrics.releases[0].record_response(Outcome.CORRECT, 1.0)
        metrics.releases[0].record_no_response()
        metrics.system.record_response(Outcome.CORRECT, 1.1)
        metrics.system.record_no_response(1.6)
        metrics.check_consistency()  # should not raise

    def test_consistency_violation_detected(self):
        metrics = SystemMetrics(releases=[ReleaseMetrics("Rel1")])
        metrics.releases[0].total_requests = 5  # corrupt
        with pytest.raises(AssertionError):
            metrics.check_consistency()

    def test_all_rows_keys(self):
        metrics = SystemMetrics(
            releases=[ReleaseMetrics("a"), ReleaseMetrics("b")]
        )
        rows = metrics.all_rows()
        assert set(rows) == {"Rel1", "Rel2", "System"}
