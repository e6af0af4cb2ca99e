"""Static workload classification.

Schedulers and operators reason about workloads in categories — "FP-port
bound", "LLC-resident", "DRAM streamer" — before any measurement exists.
These helpers derive that vocabulary from a profile's static fields, and
the classification is used to sanity-check the synthetic populations
(each paper-relevant class must be represented).
"""

from __future__ import annotations

import enum

from repro.workloads.profile import WorkloadProfile

__all__ = ["ResourceClass", "classify"]

KB = 1024
MB = 1024 * 1024


class ResourceClass(enum.Enum):
    """The dominant shared resource a workload will contend on."""

    FP_COMPUTE = "fp-compute"
    INT_COMPUTE = "int-compute"
    CACHE_RESIDENT = "cache-resident"
    LLC_HEAVY = "llc-heavy"
    DRAM_STREAMING = "dram-streaming"
    DRAM_LATENCY = "dram-latency"

    def __repr__(self) -> str:
        return f"ResourceClass.{self.name}"


def _dram_fraction(profile: WorkloadProfile, llc_bytes: float) -> float:
    """Fraction of accesses whose stratum exceeds a nominal LLC."""
    return sum(s.access_fraction for s in profile.strata
               if s.footprint_bytes > llc_bytes)


def _llc_fraction(profile: WorkloadProfile, l2_bytes: float,
                  llc_bytes: float) -> float:
    return sum(s.access_fraction for s in profile.strata
               if l2_bytes < s.footprint_bytes <= llc_bytes)


def classify(profile: WorkloadProfile, *,
             l2_bytes: float = 256 * KB,
             llc_bytes: float = 8 * MB) -> ResourceClass:
    """The dominant contention class of a profile.

    Thresholds follow the hierarchy the paper's machines share (256 KB
    L2, 8-15 MB L3); pass different ones for other machines.
    """
    dram = _dram_fraction(profile, llc_bytes)
    llc = _llc_fraction(profile, l2_bytes, llc_bytes)
    if dram >= 0.30:
        # Streaming if it can overlap misses; latency-bound otherwise.
        return (ResourceClass.DRAM_STREAMING if profile.mlp >= 4.0
                else ResourceClass.DRAM_LATENCY)
    if llc >= 0.30:
        return ResourceClass.LLC_HEAVY
    fp = profile.fp_mul + profile.fp_add + profile.fp_shf
    compute = fp + profile.int_alu
    if profile.accesses_per_instruction >= 0.30 and compute < 0.55:
        return ResourceClass.CACHE_RESIDENT
    return (ResourceClass.FP_COMPUTE if fp > profile.int_alu
            else ResourceClass.INT_COMPUTE)
