"""Experiment harness regenerating every table and figure of the paper.

Each experiment module registers an
:class:`~repro.pipeline.spec.ExperimentSpec` (cell builder, reduce,
render, sizes); :func:`repro.pipeline.run_experiment` runs any of them
under uniform options, and no module here runs a grid itself.

* :mod:`repro.experiments.paper_params` — the paper's verbatim inputs;
* :mod:`repro.experiments.scenarios` — the §5.1.1.1 Bayesian scenarios;
* :mod:`repro.experiments.table2` — managed-upgrade durations (Table 2);
* :mod:`repro.experiments.percentile_curves` — Figs 7 and 8;
* :mod:`repro.experiments.event_sim` / :mod:`repro.experiments.table5` /
  :mod:`repro.experiments.table6` — the §5.2 event-driven study;
* :mod:`repro.experiments.calibration` — latency-profile calibration
  ablation;
* :mod:`repro.experiments.report` — the markdown report composed from
  the registered specs;
* :mod:`repro.experiments.cli` — ``repro-experiments`` entry point.
"""

from repro.experiments.scenarios import (
    Scenario,
    detection_models,
    scenario_1,
    scenario_2,
)
from repro.experiments.table2 import Table2Result
from repro.experiments.percentile_curves import PercentileCurves
from repro.experiments.event_sim import (
    LatencyProfile,
    SimulationTable,
    calibrated_profile,
    metrics_from_log,
    paper_profile,
    run_release_pair_simulation,
)
from repro.experiments.multi_release import (
    MultiReleaseSweep,
    run_n_release_simulation,
)
from repro.experiments.fidelity import FidelityDiff, compare_to_paper
from repro.experiments.robustness import RobustnessReport

__all__ = [
    "Scenario",
    "detection_models",
    "scenario_1",
    "scenario_2",
    "Table2Result",
    "PercentileCurves",
    "LatencyProfile",
    "SimulationTable",
    "calibrated_profile",
    "metrics_from_log",
    "paper_profile",
    "run_release_pair_simulation",
    "MultiReleaseSweep",
    "run_n_release_simulation",
    "RobustnessReport",
    "FidelityDiff",
    "compare_to_paper",
]
