"""Sensitivity curves: degradation as a function of stressor intensity.

Section III-B1's profiling-cost argument: because a Ruler's intensity
relates (near-)linearly to the interference it causes, the *entire*
sensitivity curve can be approximated by interpolating between a handful
of measured points — for the memory dimensions, the three Rulers whose
working sets equal the L1, L2, and L3 sizes. This module makes that
interpolation a first-class object:

- :func:`measure_sensitivity_curve` samples the real curve (co-running
  the application with a Ruler intensity sweep);
- :class:`SensitivityCurve` interpolates degradation at any intensity or
  memory working-set size, and quantifies how well the sparse
  interpolation matches densely measured points — the reproduction of the
  paper's Pearson-based linearity argument.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.stats import pearson
from repro.errors import CharacterizationError, ConfigurationError
from repro.rulers.base import Dimension, Ruler
from repro.smt.simulator import PairMode, Simulator
from repro.workloads.profile import WorkloadProfile

__all__ = ["SensitivityCurve", "measure_sensitivity_curve"]


@dataclass(frozen=True)
class SensitivityCurve:
    """Measured (intensity, degradation) samples plus interpolation.

    ``intensities`` are the Ruler intensities in (0, 1], strictly
    increasing; for memory dimensions, intensity maps linearly onto the
    Ruler working-set size (see :class:`~repro.rulers.base.Ruler`).
    """

    workload: str
    dimension: Dimension
    intensities: tuple[float, ...]
    degradations: tuple[float, ...]
    #: working-set bytes at intensity 1.0 (memory dimensions only)
    full_footprint_bytes: float = 0.0

    def __post_init__(self) -> None:
        if len(self.intensities) != len(self.degradations):
            raise ConfigurationError(
                "intensities and degradations must pair up"
            )
        if len(self.intensities) < 2:
            raise ConfigurationError(
                "a sensitivity curve needs at least two samples"
            )
        if list(self.intensities) != sorted(set(self.intensities)):
            raise ConfigurationError(
                "intensities must be strictly increasing"
            )
        if any(not 0.0 < i <= 1.0 for i in self.intensities):
            raise ConfigurationError("intensities must lie in (0, 1]")

    # ------------------------------------------------------------------

    def at(self, intensity: float) -> float:
        """Piecewise-linear degradation at an arbitrary intensity.

        Below the first sample the curve extrapolates linearly toward the
        zero-pressure point (0, 0); above the last sample it clamps (the
        Ruler cannot exceed full intensity).
        """
        if intensity <= 0.0:
            return 0.0
        xs, ys = self.intensities, self.degradations
        if intensity >= xs[-1]:
            return ys[-1]
        if intensity <= xs[0]:
            return ys[0] * intensity / xs[0]  # intensities are validated in (0, 1] at construction
        hi = bisect.bisect_right(xs, intensity)
        lo = hi - 1
        span = xs[hi] - xs[lo]
        weight = (intensity - xs[lo]) / span  # intensities are validated strictly increasing, so span > 0
        return ys[lo] + weight * (ys[hi] - ys[lo])

    def at_working_set(self, footprint_bytes: float) -> float:
        """Degradation for a stressor of the given working-set size.

        Only meaningful for memory dimensions, where Ruler intensity maps
        linearly onto working-set bytes.
        """
        if not self.dimension.is_memory:
            raise CharacterizationError(
                f"{self.dimension} is not a memory dimension; "
                f"use intensities directly"
            )
        if self.full_footprint_bytes <= 0:
            raise CharacterizationError(
                "curve was built without a working-set mapping"
            )
        floor = Ruler.MEMORY_FOOTPRINT_FLOOR
        scale = footprint_bytes / self.full_footprint_bytes
        # Invert the Ruler's footprint mapping: scale = floor + (1-floor)*i.
        intensity = (scale - floor) / (1.0 - floor)  # MEMORY_FOOTPRINT_FLOOR is the constant 0.5
        return self.at(max(0.0, min(1.0, intensity)))

    @property
    def endpoints_only(self) -> "SensitivityCurve":
        """The two-sample curve the paper's fast profiling would keep."""
        return SensitivityCurve(
            workload=self.workload,
            dimension=self.dimension,
            intensities=(self.intensities[0], self.intensities[-1]),
            degradations=(self.degradations[0], self.degradations[-1]),
            full_footprint_bytes=self.full_footprint_bytes,
        )

    def linearity(self) -> float:
        """Pearson correlation between intensity and degradation."""
        if max(self.degradations) - min(self.degradations) < 1e-9:
            return 1.0  # flat response: trivially linear
        return pearson(self.intensities, self.degradations)

    def interpolation_error(self, reference: "SensitivityCurve") -> float:
        """Mean |this curve - reference| over the reference's samples.

        Evaluating a sparse (e.g. endpoints-only) curve against a dense
        one quantifies what the paper's two-sample profiling shortcut
        costs in accuracy.
        """
        errors = [
            abs(self.at(x) - y)
            for x, y in zip(reference.intensities, reference.degradations)
        ]
        if not errors:
            return 0.0
        return sum(errors) / len(errors)


def measure_sensitivity_curve(
    simulator: Simulator,
    profile: WorkloadProfile,
    ruler: Ruler,
    *,
    points: int = 5,
    mode: PairMode = "smt",
) -> SensitivityCurve:
    """Sample an application's sensitivity curve against one Ruler."""
    if points < 2:
        raise ConfigurationError("a curve needs at least two sample points")
    intensities = [(i + 1) / points for i in range(points)]
    degradations = [
        simulator.measure_pair(
            profile, ruler.at_intensity(intensity).profile, mode
        ).degradation_a
        for intensity in intensities
    ]
    full_footprint = (ruler.at_intensity(1.0).profile.total_footprint_bytes
                      if ruler.dimension.is_memory else 0.0)
    return SensitivityCurve(
        workload=profile.name,
        dimension=ruler.dimension,
        intensities=tuple(intensities),
        degradations=tuple(degradations),
        full_footprint_bytes=full_footprint,
    )
