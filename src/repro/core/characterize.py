"""Sensitivity and contentiousness characterization (Section III-B2).

Co-locate an application with each Ruler on the sibling SMT context:
the application's degradation is its *sensitivity* in that dimension
(Equation 1), the Ruler's degradation is the application's
*contentiousness* (Equation 2). One characterization per application —
never per pair — is the methodology's whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.errors import CharacterizationError
from repro.obs import counter, span
from repro.rulers.base import Dimension, RulerSuite
from repro.smt.simulator import PairMode, Simulator
from repro.workloads.profile import WorkloadProfile

__all__ = [
    "Characterization",
    "characterize",
    "characterize_many",
]


@dataclass(frozen=True)
class Characterization:
    """Per-dimension sensitivity/contentiousness vectors for one workload."""

    workload: str
    sensitivity: Mapping[Dimension, float]
    contentiousness: Mapping[Dimension, float]

    def __post_init__(self) -> None:
        if set(self.sensitivity) != set(self.contentiousness):
            raise CharacterizationError(
                f"{self.workload}: sensitivity and contentiousness cover "
                f"different dimensions"
            )
        if not self.sensitivity:
            raise CharacterizationError(
                f"{self.workload}: empty characterization"
            )

    @property
    def dimensions(self) -> tuple[Dimension, ...]:
        """Measured dimensions in canonical order, stashed on the instance.

        Model features ask for this twice per call; walking the enum
        each time is measurable on the warm pipeline.
        """
        try:
            return self.__dict__["_dimensions"]
        except KeyError:
            dims = tuple(d for d in Dimension if d in self.sensitivity)
            object.__setattr__(self, "_dimensions", dims)
            return dims

    def sensitivity_vector(self) -> np.ndarray:
        """Sensitivities in canonical dimension order."""
        return np.array([self.sensitivity[d] for d in self.dimensions])

    def contentiousness_vector(self) -> np.ndarray:
        """Contentiousness in canonical dimension order."""
        return np.array([self.contentiousness[d] for d in self.dimensions])

    def describe(self) -> str:
        parts = [
            f"{d.name}: sen={self.sensitivity[d]:+.3f} "
            f"con={self.contentiousness[d]:+.3f}"
            for d in self.dimensions
        ]
        return f"{self.workload}: " + ", ".join(parts)


def characterize(
    simulator: Simulator,
    profile: WorkloadProfile,
    suite: RulerSuite,
    *,
    mode: PairMode = "smt",
) -> Characterization:
    """Measure one workload against every Ruler in the suite.

    ``mode`` selects the co-location topology: the paper characterizes on
    the SMT sibling context; CMP characterization puts the Ruler on a
    different core (used when predicting CMP co-locations).
    """
    counter("core.characterize.workloads").inc()
    sensitivity: dict[Dimension, float] = {}
    contentiousness: dict[Dimension, float] = {}
    for dimension in suite:
        ruler = suite[dimension]
        measurement = simulator.measure_pair(profile, ruler.profile, mode)
        sensitivity[dimension] = measurement.degradation_a
        contentiousness[dimension] = measurement.degradation_b
    return Characterization(
        workload=profile.name,
        sensitivity=sensitivity,
        contentiousness=contentiousness,
    )


def characterize_many(
    simulator: Simulator,
    profiles: Iterable[WorkloadProfile],
    suite: RulerSuite,
    *,
    mode: PairMode = "smt",
) -> dict[str, Characterization]:
    """Characterize a population; returns name -> characterization.

    The whole sweep — every (workload, Ruler) co-run plus the solo
    baselines — is prefetched through the vectorized batch solver in one
    stacked fixed-point iteration; the per-pair measurements then read
    straight out of the simulator's memo cache.
    """
    with span("characterize_many"):
        profiles = list(profiles)
        rulers = [suite[dimension].profile for dimension in suite]
        simulator.prefetch_readings(pairs=[
            (profile, ruler, mode) for profile in profiles for ruler in rulers
        ])
        result: dict[str, Characterization] = {}
        for profile in profiles:
            result[profile.name] = characterize(simulator, profile, suite,
                                                mode=mode)
        return result
