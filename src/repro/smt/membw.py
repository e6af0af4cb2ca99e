"""Shared DRAM bandwidth: traffic accounting and queueing-latency inflation.

All contexts on a chip share finite memory bandwidth. Traffic is every
L3-missing access times the line size; as aggregate traffic approaches the
peak, effective DRAM latency inflates with the usual open-queue factor
``1 + beta * rho / (1 - rho)`` (rho capped to keep the model finite when a
streaming workload would nominally over-subscribe the channels).

:mod:`repro.smt.batch` evaluates the same traffic sum and latency factor
per problem inside its stacked iteration; keep the formulas in lockstep.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["aggregate_traffic", "dram_latency_factor"]


def aggregate_traffic(
    per_context_traffic: Sequence[float],
) -> float:
    """Sum per-context DRAM traffic (bytes per cycle)."""
    total = 0.0
    for t in per_context_traffic:
        if t < 0:
            raise ConfigurationError(f"negative DRAM traffic ({t})")
        total += t
    return total


def dram_latency_factor(
    traffic_bytes_per_cycle: float,
    peak_bytes_per_cycle: float,
    beta: float,
    rho_cap: float,
) -> float:
    """Latency multiplier for the current bandwidth utilization."""
    if peak_bytes_per_cycle <= 0:
        raise ConfigurationError("peak bandwidth must be positive")
    if traffic_bytes_per_cycle < 0:
        raise ConfigurationError("traffic cannot be negative")
    rho = min(traffic_bytes_per_cycle / peak_bytes_per_cycle, rho_cap)
    return 1.0 + beta * rho / (1.0 - rho)  # rho is capped at rho_cap, validated < 1 by MachineSpec
