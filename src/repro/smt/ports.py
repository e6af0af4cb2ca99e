"""Execution-port demand and contention.

``balance_port_demand`` statically distributes a profile's uops across the
ports each kind may use (Figure 1's bindings): single-port kinds are pinned
first, then flexible kinds (loads over ports 2/3, INT_ADD over 0/1/5) are
water-filled to minimize the peak port load — what an out-of-order
scheduler achieves in steady state.

``contention_inflation`` is the queueing-delay factor a context pays on a
port when its core sibling keeps that port busy a fraction ``rho`` of
cycles: ``1 + kappa * rho / (1 - rho)``, with ``rho`` capped so a
saturating Ruler produces a large-but-finite slowdown.

:mod:`repro.smt.batch` carries row-vectorized twins of ``water_fill``
and the pinned/flexible placement order below; changes here must be
mirrored there (the batch-vs-scalar property tests will object if not).
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ConfigurationError
from repro.isa.opcodes import ALL_PORTS, PORT_BINDINGS, UopKind

__all__ = ["balance_port_demand", "contention_inflation",
           "split_port_demand", "water_fill"]


def water_fill(levels: list[float], amount: float) -> list[float]:
    """Distribute ``amount`` over bins to equalize their fill levels.

    Classic water-filling: pour into the lowest bins first until all
    touched bins reach a common level. Returns the per-bin increments.
    """
    if amount < 0:
        raise ConfigurationError(f"cannot water-fill a negative amount ({amount})")
    n = len(levels)
    if n == 0:
        raise ConfigurationError("cannot water-fill into zero bins")
    if amount == 0:
        return [0.0] * n

    order = sorted(range(n), key=lambda i: levels[i])
    increments = [0.0] * n
    remaining = amount
    # Raise the lowest k bins to the level of bin k+1, step by step.
    for k in range(n):
        current = levels[order[k]] + increments[order[k]]
        if k + 1 < n:
            target = levels[order[k + 1]]
            need = (target - current) * (k + 1)
            if need >= remaining:
                per_bin = remaining / (k + 1)
                for i in order[: k + 1]:
                    increments[i] += per_bin
                return increments
            if need > 0:
                per_bin = need / (k + 1)
                for i in order[: k + 1]:
                    increments[i] += per_bin
                remaining -= need
        else:
            per_bin = remaining / n
            for i in order:
                increments[i] += per_bin
            remaining = 0.0
    return increments


def split_port_demand(
    uops: Mapping[UopKind, float],
) -> tuple[dict[int, float], list[tuple[UopKind, float, tuple[int, ...]]]]:
    """Split a uop mix into pinned per-port demand and flexible kinds.

    Pinned demand comes from single-port kinds; flexible kinds (loads over
    ports 2/3, INT_ADD over 0/1/5) are returned for the caller to place —
    statically or against live contention. Flexible kinds are ordered
    fewest-choices-first so two-port loads settle before three-port INT.
    """
    pinned = {p: 0.0 for p in ALL_PORTS}
    flexible: list[tuple[UopKind, float, tuple[int, ...]]] = []
    for kind, rate in uops.items():
        if rate < 0:
            raise ConfigurationError(f"negative uop rate for {kind.name}")
        if rate == 0.0:
            continue
        ports = PORT_BINDINGS[kind]
        if not ports:  # NOPs occupy no execution port
            continue
        if len(ports) == 1:
            pinned[ports[0]] += rate
        else:
            flexible.append((kind, rate, ports))
    flexible.sort(key=lambda item: len(item[2]))
    return pinned, flexible


def balance_port_demand(
    uops: Mapping[UopKind, float],
    *,
    background: Mapping[int, float] | None = None,
    own_rate: float = 1.0,
) -> dict[int, float]:
    """Per-port uops-per-instruction for a profile's uop mix.

    ``background`` is the utilization (uops/cycle) other contexts impose
    on each port; flexible kinds steer around it, as an out-of-order
    scheduler does when an SMT sibling saturates one of their ports.
    ``own_rate`` converts this context's per-instruction demand into
    utilization units (its current IPC) so the two are commensurable.

    Returns a dict over all six ports (zero entries included) so callers
    can iterate uniformly.
    """
    if own_rate <= 0:
        raise ConfigurationError(f"own_rate must be positive, got {own_rate}")
    demand, flexible = split_port_demand(uops)
    for _kind, rate, ports in flexible:
        levels = [
            demand[p] + (background.get(p, 0.0) / own_rate if background else 0.0)
            for p in ports
        ]
        for port, inc in zip(ports, water_fill(levels, rate)):
            demand[port] += inc
    return demand


def contention_inflation(rho: float, kappa: float, rho_cap: float) -> float:
    """Queueing inflation on a resource whose competitor utilization is rho."""
    if rho < 0:
        raise ConfigurationError(f"utilization cannot be negative ({rho})")
    if kappa < 0:
        raise ConfigurationError(f"contention kappa cannot be negative ({kappa})")
    clipped = min(rho, rho_cap)
    return 1.0 + kappa * clipped / (1.0 - clipped)  # clipped <= rho_cap, validated < 1 by MachineSpec
