"""Ruler core types: sharing dimensions, the Ruler itself, and suites."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from repro.errors import ConfigurationError
from repro.workloads.profile import WorkloadProfile

__all__ = ["Dimension", "Ruler", "RulerSuite"]


class Dimension(enum.Enum):
    """The seven sharing dimensions SMiTe characterizes (Section II).

    Four functional-unit dimensions (one per port-specific operation
    class) and three cache-level dimensions.
    """

    FP_MUL = "fp_mul"      # port 0
    FP_ADD = "fp_add"      # port 1
    FP_SHF = "fp_shf"      # port 5
    INT_ADD = "int_add"    # ports 0, 1, 5
    L1 = "l1"
    L2 = "l2"
    L3 = "l3"

    def __repr__(self) -> str:
        return f"Dimension.{self.name}"

    @property
    def is_functional_unit(self) -> bool:
        return self in (Dimension.FP_MUL, Dimension.FP_ADD,
                        Dimension.FP_SHF, Dimension.INT_ADD)

    @property
    def is_memory(self) -> bool:
        return not self.is_functional_unit

    @property
    def target_port(self) -> int | None:
        """The single port a port-specific FU dimension saturates."""
        return {Dimension.FP_MUL: 0, Dimension.FP_ADD: 1,
                Dimension.FP_SHF: 5}.get(self)


#: The paper's canonical dimension ordering (Figures 6 and 7).
ALL_DIMENSIONS: tuple[Dimension, ...] = tuple(Dimension)


@dataclass(frozen=True)
class Ruler:
    """A stressor profile targeting one sharing dimension.

    ``intensity`` is the Ruler's pressure knob: duty cycle for
    functional-unit Rulers (1.0 = saturating the port), working-set scale
    for memory Rulers (1.0 = footprint equal to the target cache's size).
    """

    dimension: Dimension
    profile: WorkloadProfile
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.intensity <= 1.0:
            raise ConfigurationError(
                f"ruler intensity must be in (0, 1], got {self.intensity}"
            )

    @property
    def name(self) -> str:
        return self.profile.name

    #: A memory Ruler's working set never shrinks below this fraction of
    #: its full (cache-sized) footprint. Below roughly its fair share of
    #: the cache, a smaller footprint makes the Ruler itself *faster*
    #: under sharing (its set stays resident), and the rising port/front-
    #: end pressure breaks the intensity/interference linearity the design
    #: requires (Section III-B1's second principle).
    MEMORY_FOOTPRINT_FLOOR = 0.5

    def at_intensity(self, intensity: float) -> "Ruler":
        """This Ruler re-tuned to a different pressure level.

        Functional-unit Rulers duty-cycle by adding idle (throttle) cycles
        so the port utilization scales linearly with intensity; memory
        Rulers scale their footprint strata linearly between the floor
        fraction and the full cache size.
        """
        if not 0.0 < intensity <= 1.0:
            raise ConfigurationError(
                f"ruler intensity must be in (0, 1], got {intensity}"
            )
        if intensity == self.intensity:
            return self
        base = self._full_intensity_profile()
        if self.dimension.is_functional_unit:
            # Solo CPI of the saturating ruler is its peak per-port
            # occupancy (INT_ADD spreads over three ports, so one INT uop
            # per instruction occupies each port only a third of the
            # time); idle cycles scale utilization to exactly `intensity`.
            from repro.smt.ports import balance_port_demand

            demand = balance_port_demand(base.uops)
            peak_occupancy = max(demand.values(), default=1.0)
            throttle = peak_occupancy * (1.0 - intensity) / intensity
            profile = base.replace(
                name=f"{base.name}@{intensity:.2f}",
                throttle_cpi=throttle,
            )
        else:
            scale = self._memory_scale(intensity)
            strata = tuple(
                s.__class__(footprint_bytes=s.footprint_bytes * scale,
                            access_fraction=s.access_fraction)
                for s in base.strata
            )
            profile = base.replace(
                name=f"{base.name}@{intensity:.2f}",
                strata=strata,
            )
        return Ruler(dimension=self.dimension, profile=profile,
                     intensity=intensity)

    @classmethod
    def _memory_scale(cls, intensity: float) -> float:
        """Footprint scale for a memory-ruler intensity."""
        floor = cls.MEMORY_FOOTPRINT_FLOOR
        return floor + (1.0 - floor) * intensity

    def _full_intensity_profile(self) -> WorkloadProfile:
        """The profile at intensity 1.0 (strip any prior tuning)."""
        if self.intensity == 1.0:
            return self.profile
        base_name = self.profile.name.split("@")[0]
        if self.dimension.is_functional_unit:
            return self.profile.replace(name=base_name, throttle_cpi=0.0)
        scale = self._memory_scale(self.intensity)
        strata = tuple(
            s.__class__(footprint_bytes=s.footprint_bytes / scale,  # _memory_scale is floored at MEMORY_FOOTPRINT_FLOOR (0.5)
                        access_fraction=s.access_fraction)
            for s in self.profile.strata
        )
        return self.profile.replace(name=base_name, strata=strata)


class RulerSuite:
    """An ordered mapping of sharing dimension to Ruler."""

    def __init__(self, rulers: Mapping[Dimension, Ruler]) -> None:
        for dim, ruler in rulers.items():
            if ruler.dimension is not dim:
                raise ConfigurationError(
                    f"ruler {ruler.name!r} targets {ruler.dimension}, "
                    f"but is registered under {dim}"
                )
        self._rulers = dict(rulers)

    def __getitem__(self, dimension: Dimension) -> Ruler:
        return self._rulers[dimension]

    def __contains__(self, dimension: Dimension) -> bool:
        return dimension in self._rulers

    def __len__(self) -> int:
        return len(self._rulers)

    def __iter__(self) -> Iterator[Dimension]:
        # Canonical dimension order, not insertion order.
        return (d for d in ALL_DIMENSIONS if d in self._rulers)

    @property
    def dimensions(self) -> tuple[Dimension, ...]:
        return tuple(self)

    @property
    def rulers(self) -> tuple[Ruler, ...]:
        return tuple(self._rulers[d] for d in self)
