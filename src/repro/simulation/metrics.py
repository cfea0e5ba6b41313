"""Metrics collectors matching the row format of Tables 5 and 6.

For each release and for the adjudicated system the paper reports, per
10,000 requests:

* **MET** — mean execution time of responses, in seconds;
* **CR / EER / NER** — counts of correct, evidently-erroneous and
  non-evidently-erroneous responses *collected within the TimeOut*;
* **Total** — sum of the three counts;
* **NRDT** — requests for which no response arrived within the TimeOut.

``Total + NRDT == total requests`` always holds (asserted in tests).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.simulation.outcomes import OUTCOME_ORDER, Outcome

_CODE_CORRECT = OUTCOME_ORDER.index(Outcome.CORRECT)
_CODE_NON_EVIDENT = OUTCOME_ORDER.index(Outcome.NON_EVIDENT_FAILURE)


@dataclass
class OutcomeCounts:
    """Counts of collected responses by content outcome."""

    correct: int = 0
    evident: int = 0
    non_evident: int = 0

    def record(self, outcome: Outcome) -> None:
        if outcome is Outcome.CORRECT:
            self.correct += 1
        elif outcome is Outcome.EVIDENT_FAILURE:
            self.evident += 1
        elif outcome is Outcome.NON_EVIDENT_FAILURE:
            self.non_evident += 1
        else:  # pragma: no cover - exhaustive over the enum
            raise ValueError(f"unknown outcome: {outcome!r}")

    @property
    def total(self) -> int:
        """Total responses collected (the paper's 'Total' row)."""
        return self.correct + self.evident + self.non_evident

    def as_dict(self) -> Dict[str, int]:
        return {
            "CR": self.correct,
            "EER": self.evident,
            "NER": self.non_evident,
            "Total": self.total,
        }


class ReleaseMetrics:
    """Accumulates one release's (or the system's) row of Table 5/6."""

    def __init__(self, name: str):
        self.name = name
        self.counts = OutcomeCounts()
        self.no_response = 0
        self._time_sum = 0.0
        self._time_count = 0
        self.total_requests = 0

    def record_response(self, outcome: Outcome, execution_time: float) -> None:
        """Record a response collected within the TimeOut."""
        self.total_requests += 1
        self.counts.record(outcome)
        self._time_sum += execution_time
        self._time_count += 1

    def record_no_response(
        self, execution_time: Optional[float] = None
    ) -> None:
        """Record a demand with no response within the TimeOut (NRDT).

        *execution_time* may still be supplied for the system row, where
        eq. (8) pins the system time at ``TimeOut + dT`` even when nothing
        was collected.
        """
        self.total_requests += 1
        self.no_response += 1
        if execution_time is not None:
            self._time_sum += execution_time
            self._time_count += 1

    @classmethod
    def from_masks(
        cls,
        name: str,
        collected: np.ndarray,
        outcome_codes: np.ndarray,
        recorded_times: np.ndarray,
        requests: int,
    ) -> "ReleaseMetrics":
        """Build a row from whole-cell arrays (the columnar reducer).

        *collected* masks the demands whose response this row collected
        and *outcome_codes* holds every demand's code, an index into
        :data:`~repro.simulation.outcomes.OUTCOME_ORDER` — the caller
        guarantees the range (the columnar backend checks it once per
        cell group), so CR and NER are counted from the masks and EER is
        the remainder.  *recorded_times* are the execution times that
        entered the MET accumulator, **in demand order** — the sum is
        taken with ``np.cumsum(...)[-1]``, whose strict left-to-right
        IEEE accumulation is bit-identical to the scalar
        ``_time_sum += t`` loop of :meth:`record_response` (``np.sum``
        is not: it sums pairwise).  *requests* counts the demands the row
        covers; those not collected are its NRDT and contribute no time,
        so callers wanting the system row's eq. (8) timeout pinned into
        MET include it in *recorded_times*.  Every field is a Python
        ``int`` or ``float``, as on the event path.
        """
        metrics = cls(name)
        counts = metrics.counts
        total = int(np.count_nonzero(collected))
        counts.correct = int(
            np.count_nonzero(collected & (outcome_codes == _CODE_CORRECT))
        )
        counts.non_evident = int(
            np.count_nonzero(collected & (outcome_codes == _CODE_NON_EVIDENT))
        )
        counts.evident = total - counts.correct - counts.non_evident
        metrics.no_response = requests - total
        if recorded_times.size:
            metrics._time_sum = float(np.cumsum(recorded_times)[-1])
            metrics._time_count = recorded_times.size
        metrics.total_requests = requests
        return metrics

    @property
    def mean_execution_time(self) -> float:
        """MET over the responses that had a recorded time."""
        if self._time_count == 0:
            return float("nan")
        return self._time_sum / self._time_count

    @property
    def availability(self) -> float:
        """Fraction of demands that produced a response within TimeOut."""
        if self.total_requests == 0:
            return float("nan")
        return self.counts.total / self.total_requests

    @property
    def reliability(self) -> float:
        """Fraction of demands answered *correctly* within TimeOut."""
        if self.total_requests == 0:
            return float("nan")
        return self.counts.correct / self.total_requests

    def as_row(self) -> Dict[str, object]:
        """This release's column of Table 5/6, as a dict."""
        row: Dict[str, object] = {"MET": self.mean_execution_time}
        row.update(self.counts.as_dict())
        row["NRDT"] = self.no_response
        row["Total requests"] = self.total_requests
        return row

    def __repr__(self) -> str:
        return (
            f"ReleaseMetrics(name={self.name!r}, MET="
            f"{self.mean_execution_time:.4f}, {self.counts.as_dict()!r}, "
            f"NRDT={self.no_response})"
        )


@dataclass
class SystemMetrics:
    """The full measurement set of one simulation run (one table cell).

    Bundles a :class:`ReleaseMetrics` per release plus one for the
    adjudicated system, in deployment order (old release first).
    """

    releases: List[ReleaseMetrics] = field(default_factory=list)
    system: ReleaseMetrics = field(
        default_factory=lambda: ReleaseMetrics("System")
    )

    def release(self, index: int) -> ReleaseMetrics:
        return self.releases[index]

    def all_rows(self) -> Dict[str, Dict[str, object]]:
        """Rows keyed by column name (Rel1, Rel2, ..., System)."""
        rows = {
            f"Rel{i + 1}": metrics.as_row()
            for i, metrics in enumerate(self.releases)
        }
        rows["System"] = self.system.as_row()
        return rows

    def check_consistency(self) -> None:
        """Assert the Table-5 invariant ``Total + NRDT == requests``."""
        for metrics in [*self.releases, self.system]:
            total = metrics.counts.total + metrics.no_response
            if total != metrics.total_requests:
                raise AssertionError(
                    f"{metrics.name}: Total({metrics.counts.total}) + "
                    f"NRDT({metrics.no_response}) != requests"
                    f"({metrics.total_requests})"
                )
