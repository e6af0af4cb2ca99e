"""Cache-hierarchy model: capture curves and capacity sharing.

Each profile's memory behaviour is a set of footprint strata. For a
stratum of footprint ``F`` and an effective capacity ``C`` at some level,
the *resident fraction* — the share of that stratum's accesses that hit at
or before the level — follows a concave capture curve ``(C/F)^e`` (e < 1),
reflecting the non-uniform reuse real stack-distance profiles show.

When several contexts share a level, capacity is divided in proportion to
each context's *pressure*: its access arrival rate at that level times the
portion of its footprint the level could hold. This is how an LRU cache
behaves under interleaved access streams, and it is exactly the mechanism
a Ruler exploits — a high-rate stream over a footprint equal to the cache
size claims roughly half the capacity.

Pressures here are *intrinsic* — built from access rates and footprints,
never from the evolving IPC estimates. The batch solver
(:mod:`repro.smt.batch`) relies on that: it computes capacity shares and
hit fractions once per batch instead of once per iteration. If sharing
ever becomes IPC-dependent, that hoist (and the scalar loop's idempotent
recompute) must both change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.workloads.profile import FootprintStratum

__all__ = [
    "HitFractions",
    "capture_fraction",
    "hit_fractions",
    "occupancy_pressures",
    "share_capacity",
]


@dataclass(frozen=True)
class HitFractions:
    """Fractions of data accesses served at each hierarchy level.

    ``l1 + l2 + l3 + memory == 1`` for any memory-accessing profile.
    """

    l1: float
    l2: float
    l3: float
    memory: float

    def __post_init__(self) -> None:
        for name in ("l1", "l2", "l3", "memory"):
            value = getattr(self, name)
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise ConfigurationError(f"hit fraction {name}={value} out of range")

    @property
    def beyond_l1(self) -> float:
        """Fraction of accesses that miss the L1 (arrive at L2)."""
        return self.l2 + self.l3 + self.memory

    @property
    def beyond_l2(self) -> float:
        """Fraction of accesses that miss the L2 (arrive at L3)."""
        return self.l3 + self.memory


#: Hit fractions for a profile with no data accesses.
NO_ACCESSES = HitFractions(l1=0.0, l2=0.0, l3=0.0, memory=0.0)


def capture_fraction(footprint_bytes: float, capacity_bytes: float,
                     exponent: float) -> float:
    """Fraction of a stratum's accesses resident within ``capacity_bytes``."""
    if footprint_bytes <= 0:
        raise ConfigurationError("footprint must be positive")
    if capacity_bytes <= 0:
        return 0.0
    if capacity_bytes >= footprint_bytes:
        return 1.0
    return (capacity_bytes / footprint_bytes) ** exponent


def hit_fractions(
    strata: Sequence[FootprintStratum],
    capacities: tuple[float, float, float],
    exponent: float,
) -> HitFractions:
    """Per-level hit fractions given effective capacities (L1, L2, L3).

    Capacities are cumulative-monotone-clamped: a context can never be
    resident at L2 less than at L1 (the hierarchy is inclusive).
    """
    if not strata:
        return NO_ACCESSES
    c1, c2, c3 = capacities
    h1 = h2 = h3 = hm = 0.0
    for stratum in strata:
        r1 = capture_fraction(stratum.footprint_bytes, c1, exponent)
        r2 = max(r1, capture_fraction(stratum.footprint_bytes, c2, exponent))
        r3 = max(r2, capture_fraction(stratum.footprint_bytes, c3, exponent))
        h1 += stratum.access_fraction * r1
        h2 += stratum.access_fraction * (r2 - r1)
        h3 += stratum.access_fraction * (r3 - r2)
        hm += stratum.access_fraction * (1.0 - r3)
    return HitFractions(l1=h1, l2=h2, l3=h3, memory=hm)


def occupancy_pressures(
    strata: Sequence[FootprintStratum],
    accesses_per_instruction: float,
    capacities: tuple[float, float, float],
    exponent: float,
    reuse_exponent: float = 0.0,
) -> tuple[float, float, float]:
    """Per-level occupancy pressure of a profile (per instruction).

    For each stratum and each level, pressure is the stratum's access rate
    *reaching* that level (misses above it, at full capacities) times the
    bytes it can occupy there. A positive ``reuse_exponent`` discounts the
    occupancy of streams whose footprint dwarfs the level (they
    re-reference each line rarely and hold less of it under LRU). This is the quantity shared-capacity allocation is
    proportional to; it is intrinsic to the profile (independent of
    achieved IPC) so the fixed point stays free of winner-take-all
    feedback.
    """
    if not strata or accesses_per_instruction <= 0.0:
        return (0.0, 0.0, 0.0)
    c1, c2, c3 = capacities
    pressures = [0.0, 0.0, 0.0]
    for stratum in strata:
        rate = accesses_per_instruction * stratum.access_fraction
        r1 = capture_fraction(stratum.footprint_bytes, c1, exponent)
        r2 = max(r1, capture_fraction(stratum.footprint_bytes, c2, exponent))
        reach = (1.0, 1.0 - r1, 1.0 - r2)
        for level, capacity in enumerate((c1, c2, c3)):
            held = min(stratum.footprint_bytes, capacity)
            reuse = (min(1.0, capacity / stratum.footprint_bytes)  # smite: noqa[SMT302]: FootprintStratum validates footprint_bytes positive
                     ** reuse_exponent)
            pressures[level] += rate * reach[level] * held * reuse
    return (pressures[0], pressures[1], pressures[2])


def share_capacity(
    total_bytes: float,
    pressures: Sequence[float],
    share_floor: float,
) -> list[float]:
    """Split a shared level's capacity in proportion to context pressures.

    Contexts with zero pressure receive the full capacity nominally (they
    never touch the level, so their allocation is irrelevant and must not
    dilute real competitors). Non-zero contexts receive proportional
    shares, floored at ``share_floor`` of the total so no working stream is
    starved completely.
    """
    if total_bytes <= 0:
        raise ConfigurationError("shared capacity must be positive")
    active = [(i, p) for i, p in enumerate(pressures) if p > 0.0]
    result = [total_bytes] * len(list(pressures))
    if len(active) <= 1:
        return result
    total_pressure = sum(p for _, p in active)
    floor = share_floor
    for i, p in active:
        share = max(floor, p / total_pressure)  # smite: noqa[SMT302]: total_pressure sums the active pressures, each filtered > 0
        result[i] = total_bytes * min(1.0, share)
    return result
