"""Ruler design validation: port purity and pressure linearity.

Section III-B1 validates the functional-unit Rulers with the
UOPS_DISPATCHED_PORT counters (>99.99% of dispatches on the target port)
and the memory Rulers by the Pearson correlation between working-set size
and the degradation they inflict (0.92/0.89/0.95 for L1/L2/L3). This
module reproduces both checks against the simulated PMU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import pearson
from repro.errors import ValidationError
from repro.rulers.base import Dimension, Ruler
from repro.rulers.suite import intensity_sweep
from repro.smt.simulator import Simulator
from repro.workloads.profile import WorkloadProfile

__all__ = ["PurityReport", "validate_purity", "validate_linearity"]

#: The paper's validated purity level for functional-unit rulers.
PURITY_THRESHOLD = 0.9999

#: Minimum acceptable intensity/degradation correlation for memory rulers.
LINEARITY_THRESHOLD = 0.85


@dataclass(frozen=True)
class PurityReport:
    """How concentrated a Ruler's port pressure is."""

    ruler_name: str
    dimension: Dimension
    target_ports: tuple[int, ...]
    target_utilization: float
    total_fu_utilization: float

    @property
    def purity(self) -> float:
        """Fraction of functional-unit dispatches on the target port(s)."""
        if self.total_fu_utilization == 0.0:
            return 0.0
        return self.target_utilization / self.total_fu_utilization


def _target_ports(dimension: Dimension) -> tuple[int, ...]:
    port = dimension.target_port
    if port is not None:
        return (port,)
    if dimension is Dimension.INT_ADD:
        return (0, 1, 5)
    raise ValidationError(f"{dimension} has no target ports")


def validate_purity(ruler: Ruler, simulator: Simulator) -> PurityReport:
    """Measure a functional-unit Ruler's port purity from the PMU.

    Raises :class:`ValidationError` if purity is below the paper's
    99.99% threshold.
    """
    if not ruler.dimension.is_functional_unit:
        raise ValidationError(
            f"purity validation applies to functional-unit rulers, "
            f"not {ruler.dimension}"
        )
    counters = simulator.read_solo_pmu(ruler.profile)
    targets = _target_ports(ruler.dimension)
    fu_ports = (0, 1, 5)
    target_util = sum(counters[f"uops_dispatched_port{p}"] for p in targets)
    total_util = sum(counters[f"uops_dispatched_port{p}"] for p in fu_ports)
    report = PurityReport(
        ruler_name=ruler.name,
        dimension=ruler.dimension,
        target_ports=targets,
        target_utilization=target_util,
        total_fu_utilization=total_util,
    )
    if report.purity < PURITY_THRESHOLD:
        raise ValidationError(
            f"{ruler.name}: port purity {report.purity:.6f} below "
            f"{PURITY_THRESHOLD}"
        )
    return report


def validate_linearity(
    ruler: Ruler,
    simulator: Simulator,
    victims: list[WorkloadProfile],
    *,
    points: int = 5,
    response_threshold: float = 0.02,
) -> float:
    """Average intensity-vs-degradation Pearson correlation over victims.

    Victims whose degradation moves by less than ``response_threshold``
    over the whole sweep are excluded: they are insensitive to this
    dimension, so their (noise-dominated) slope says nothing about the
    Ruler's linearity. Raises :class:`ValidationError` when the mean
    correlation over responsive victims falls below the acceptance
    threshold — the property that lets profiling sample only the
    sensitivity curve's end points.
    """
    if not victims:
        raise ValidationError("linearity validation needs victim workloads")
    sweep = intensity_sweep(ruler, points=points)
    intensities = [r.intensity for r in sweep]
    correlations = []
    for victim in victims:
        degradations = [
            simulator.measure_pair(victim, r.profile, "smt").degradation_a
            for r in sweep
        ]
        if max(degradations) - min(degradations) < response_threshold:
            continue  # victim indifferent to this ruler: linearity vacuous
        correlations.append(pearson(intensities, degradations))
    if not correlations:
        return 1.0
    mean = sum(correlations) / len(correlations)
    if mean < LINEARITY_THRESHOLD:
        raise ValidationError(
            f"{ruler.name}: intensity linearity {mean:.3f} below "
            f"{LINEARITY_THRESHOLD}"
        )
    return mean

