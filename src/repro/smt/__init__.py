"""Analytic SMT multicore interference simulator.

This package is the stand-in for the paper's real Sandy Bridge-EN / Ivy
Bridge machines (DESIGN.md, Substitutions). It models the resources the
paper identifies as the SMT sharing dimensions:

- six execution ports with port-specific functional units (Figure 1),
  contended between hardware contexts on the same core;
- the shared front-end issue width;
- private L1/L2 caches shared *within* a core under SMT, the L3 shared
  chip-wide, all with capacity-pressure-proportional sharing;
- finite DRAM bandwidth with queueing-latency inflation;
- fixed penalties (branch mispredicts, TLB walks, i-cache misses).

A damped fixed-point solver finds the steady-state IPC of every hardware
context simultaneously; :class:`~repro.smt.simulator.Simulator` is the
user-facing facade with solo/SMT-pair/CMP-pair/server topologies and
deterministic measurement jitter.
"""

from typing import TYPE_CHECKING

from repro._lazy import exports

if TYPE_CHECKING:
    from repro.smt.params import (
        IVY_BRIDGE,
        MACHINES,
        SANDY_BRIDGE_EN,
        CacheSpec,
        MachineSpec,
    )
    from repro.smt.pmu import PMU_COUNTERS, PmuDefectModel, read_pmu
    from repro.smt.reporting import (
        InterferenceBreakdown,
        cpi_stack,
        explain_pair,
        utilization_report,
    )
    from repro.smt.results import ContextResult, CpiBreakdown, RunResult
    from repro.smt.simulator import ContextPlacement, Simulator

__all__ = [
    "IVY_BRIDGE",
    "MACHINES",
    "SANDY_BRIDGE_EN",
    "CacheSpec",
    "MachineSpec",
    "PMU_COUNTERS",
    "PmuDefectModel",
    "read_pmu",
    "InterferenceBreakdown",
    "cpi_stack",
    "explain_pair",
    "utilization_report",
    "ContextResult",
    "CpiBreakdown",
    "RunResult",
    "ContextPlacement",
    "Simulator",
]

_EXPORTS = {
    "repro.smt.params": ("IVY_BRIDGE", "MACHINES", "SANDY_BRIDGE_EN",
                         "CacheSpec", "MachineSpec"),
    "repro.smt.pmu": ("PMU_COUNTERS", "PmuDefectModel", "read_pmu"),
    "repro.smt.reporting": ("InterferenceBreakdown", "cpi_stack",
                            "explain_pair", "utilization_report"),
    "repro.smt.results": ("ContextResult", "CpiBreakdown", "RunResult"),
    "repro.smt.simulator": ("ContextPlacement", "Simulator"),
}

__getattr__, __dir__ = exports(globals(), _EXPORTS)
