"""Ablation: calibrating the latency model to the paper's reported values.

The §5.2.2 parameters (T1, T2 ~ Exp(0.7 s)) are inconsistent with the
MET/NRDT values the paper's Tables 5-6 report (see DESIGN.md).  This
module quantifies the gap and searches a small family of latency profiles
for one whose *measured* observables match the paper's:

* per-release MET ~ 1.0 s (constant across TimeOuts);
* per-release NRDT ~ 4.4 % / 3.3 % / 2.5 % at TimeOut 1.5 / 2.0 / 3.0 s;
* **system** NRDT ~ 3.3 % / 2.4 % / 1.9 % — remarkably close to the
  per-release figure, which a 1-out-of-2 system only exhibits when
  unavailability is *correlated* across releases (hence the shared-hang
  component on the T1 leg);
* system MET ~ 1.22 s.

The fit is analytic-free: candidate profiles are evaluated by direct
Monte-Carlo of eq. (7)-(8), which is exactly how the downstream
experiment consumes them.
"""

from dataclasses import dataclass
from typing import Any, List, Mapping, Sequence, Tuple

import numpy as np

from repro.common.seeding import spawn_generator
from repro.common.tables import render_table
from repro.experiments import paper_params as P
from repro.experiments.event_sim import (
    LatencyProfile,
    calibrated_profile,
    paper_profile,
)
from repro.pipeline import ExperimentOptions, ExperimentSpec, register
from repro.runtime.parallel import CellSpec
from repro.simulation.distributions import LogNormal, WithHangs

#: The paper's reported observables (Table 5, run 1).
PAPER_RELEASE_MET = 1.0077
PAPER_RELEASE_NRDT_RATE = {1.5: 0.0436, 2.0: 0.0327, 3.0: 0.0253}
PAPER_SYSTEM_NRDT_RATE = {1.5: 0.0326, 2.0: 0.0243, 3.0: 0.0194}
PAPER_SYSTEM_MET = {1.5: 1.2194, 2.0: 1.2290, 3.0: 1.2357}


@dataclass(frozen=True)
class LatencyFit:
    """Monte-Carlo observables of one latency profile."""

    profile_name: str
    release_met: float
    nrdt_rate: dict
    system_nrdt_rate: dict
    system_met: dict

    def error(self) -> float:
        """Weighted relative error against the paper's reported values."""
        terms = [abs(self.release_met - PAPER_RELEASE_MET) / PAPER_RELEASE_MET]
        for timeout, target in PAPER_RELEASE_NRDT_RATE.items():
            terms.append(abs(self.nrdt_rate[timeout] - target) / target)
        for timeout, target in PAPER_SYSTEM_NRDT_RATE.items():
            terms.append(
                abs(self.system_nrdt_rate[timeout] - target) / target
            )
        for timeout, target in PAPER_SYSTEM_MET.items():
            terms.append(abs(self.system_met[timeout] - target) / target)
        return float(np.mean(terms))


def evaluate_profile(
    profile: LatencyProfile,
    samples: int = 100_000,
    seed: int = 7,
    timeouts: Sequence[float] = P.TIMEOUTS,
) -> LatencyFit:
    """Monte-Carlo the profile's MET / NRDT / system observables."""
    rng = spawn_generator(seed)
    t1 = profile.demand_difficulty.sample_many(rng, samples)
    release_times = [
        t1 + latency.sample_many(rng, samples)
        for latency in profile.release_latencies
    ]
    first = release_times[0]
    finite_first = first[np.isfinite(first)]
    release_met = float(finite_first.mean()) if finite_first.size else float("nan")
    nrdt_rate = {}
    system_nrdt_rate = {}
    system_met = {}
    slowest = np.maximum.reduce(release_times)
    fastest = np.minimum.reduce(release_times)
    for timeout in timeouts:
        nrdt_rate[timeout] = float(np.mean(~(first <= timeout)))
        system_nrdt_rate[timeout] = float(np.mean(~(fastest <= timeout)))
        system = np.minimum(timeout, slowest) + P.ADJUDICATION_DELAY
        system_met[timeout] = float(system.mean())
    return LatencyFit(
        profile_name=profile.name,
        release_met=release_met,
        nrdt_rate=nrdt_rate,
        system_nrdt_rate=system_nrdt_rate,
        system_met=system_met,
    )


def candidate_profiles() -> List[LatencyProfile]:
    """The calibration search family.

    Two sub-families around log-normal bodies summing to mean 1.0 s:

    * *independent hangs*: all hang mass on the per-release T2 legs;
    * *shared hangs*: most hang mass on the shared T1 leg (correlated
      unavailability), a residue per release.
    """
    candidates = [paper_profile(), calibrated_profile()]
    for t1_mean in (0.50, 0.55, 0.60):
        for sigma in (0.20, 0.25, 0.30):
            body_mean = 1.0 - t1_mean
            for p_hang in (0.020, 0.028, 0.035):
                body = LogNormal(body_mean, sigma)
                candidates.append(
                    LatencyProfile(
                        name=(
                            f"own-hangs(t1={t1_mean}, sigma={sigma}, "
                            f"hang={p_hang})"
                        ),
                        demand_difficulty=LogNormal(t1_mean, sigma),
                        release_latencies=(
                            WithHangs(body, p_hang),
                            WithHangs(body, p_hang),
                        ),
                    )
                )
            for shared_hang, own_hang in ((0.019, 0.006), (0.024, 0.009),
                                          (0.015, 0.010)):
                own = WithHangs(LogNormal(body_mean, sigma), own_hang)
                candidates.append(
                    LatencyProfile(
                        name=(
                            f"shared-hangs(t1={t1_mean}, sigma={sigma}, "
                            f"shared={shared_hang}, own={own_hang})"
                        ),
                        demand_difficulty=WithHangs(
                            LogNormal(t1_mean, sigma), shared_hang
                        ),
                        release_latencies=(own, own),
                    )
                )
    return candidates


def calibration_cells(samples: int, seed: int) -> List[CellSpec]:
    """One Monte-Carlo cell per candidate profile (profile names encode
    their parameters, making them stable cache keys)."""
    return [
        CellSpec(
            experiment="calibration",
            fn=evaluate_profile,
            kwargs=dict(profile=profile, samples=samples, seed=seed),
            key=dict(profile=profile.name, samples=samples, seed=seed),
        )
        for profile in candidate_profiles()
    ]


def render_calibration(fits: Sequence[LatencyFit], top: int = 12) -> str:
    """Text table of the calibration sweep (best *top*, plus 'paper')."""
    ordered = sorted(fits, key=lambda f: f.error())
    shown = ordered[:top]
    paper_fit = next((f for f in fits if f.profile_name == "paper"), None)
    if paper_fit is not None and paper_fit not in shown:
        shown = shown + [paper_fit]
    rows = []
    for fit in shown:
        rows.append(
            [
                fit.profile_name,
                fit.release_met,
                fit.nrdt_rate[1.5],
                fit.system_nrdt_rate[1.5],
                fit.system_met[1.5],
                fit.error(),
            ]
        )
    return render_table(
        [
            "Profile",
            "Release MET",
            "Rel NRDT@1.5",
            "Sys NRDT@1.5",
            "Sys MET@1.5",
            "Mean rel. error",
        ],
        rows,
        title=(
            "Latency calibration vs paper-reported values "
            f"(targets: MET={PAPER_RELEASE_MET}, rel NRDT@1.5="
            f"{PAPER_RELEASE_NRDT_RATE[1.5]}, sys NRDT@1.5="
            f"{PAPER_SYSTEM_NRDT_RATE[1.5]})"
        ),
    )


def _build_cells(
    options: ExperimentOptions, sizes: Mapping[str, Any]
) -> List[CellSpec]:
    return calibration_cells(samples=sizes["samples"], seed=options.seed)


def _reduce(
    fits: List[LatencyFit], options: ExperimentOptions
) -> Tuple[List[LatencyFit], LatencyFit]:
    return list(fits), min(fits, key=lambda fit: fit.error())


def _render(
    result: Tuple[List[LatencyFit], LatencyFit], options: ExperimentOptions
) -> str:
    fits, best = result
    return render_calibration(fits) + f"\n\nBest fit: {best.profile_name}"


CALIBRATION_SPEC = register(ExperimentSpec(
    name="calibrate",
    title="Latency calibration sweep vs paper-reported MET/NRDT (§5.2.2)",
    build_cells=_build_cells,
    reduce=_reduce,
    render=_render,
    full_sizes={"samples": 100_000},
    fast_sizes={"samples": 20_000},
    workload_key="samples",
    cache_schema=("profile", "samples", "seed"),
))
