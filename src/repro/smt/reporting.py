"""Human-readable reports over simulator results.

Operators debugging a co-location want the same views the paper's
analysis uses: where a context's cycles go (CPI stack), which shared
resources a placement saturates, and how a pair's interference
decomposes. These helpers turn :class:`~repro.smt.results.RunResult`
objects into text tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError
from repro.smt.results import ContextResult, RunResult
from repro.smt.simulator import PairMode, Simulator
from repro.workloads.profile import WorkloadProfile

__all__ = ["cpi_stack", "utilization_report", "InterferenceBreakdown",
           "explain_pair"]

_STACK_COMPONENTS = (
    ("compute", "issue/port/dependency bound"),
    ("contention", "SMT port + front-end queueing"),
    ("smt_overhead", "static SMT sharing cost"),
    ("memory", "cache + DRAM stalls"),
    ("branch", "branch mispredictions"),
    ("tlb", "TLB walks"),
    ("icache", "instruction-cache misses"),
)


def cpi_stack(context: ContextResult) -> str:
    """One context's cycles-per-instruction, component by component."""
    breakdown = context.breakdown
    rows = []
    for attr, label in _STACK_COMPONENTS:
        cycles = getattr(breakdown, attr)
        rows.append((label, cycles, cycles / breakdown.total))  # total includes compute, floored at the 1-uop front-end occupancy
    rows.append(("TOTAL", breakdown.total, 1.0))
    return format_table(
        ("component", "cycles/instruction", "share"),
        rows,
        title=f"CPI stack: {context.name} (IPC {context.ipc:.3f})",
    )


def utilization_report(result: RunResult) -> str:
    """Port and cache utilization of every context in a placement."""
    rows = []
    for ctx in result.contexts:
        caps = ctx.effective_capacities
        rows.append((
            ctx.name,
            ctx.core,
            ctx.ipc,
            max(ctx.port_utilization.values(), default=0.0),
            f"{caps[0] / 1024:.0f}K/{caps[1] / 1024:.0f}K/"
            f"{caps[2] / (1024 * 1024):.1f}M",
            ctx.hits.memory,
        ))
    return format_table(
        ("context", "core", "ipc", "peak port util",
         "L1/L2/L3 allocation", "DRAM access fraction"),
        rows,
        title=f"placement on {result.machine_name} "
              f"(DRAM utilization {result.dram_utilization:.0%})",
    )


@dataclass(frozen=True)
class InterferenceBreakdown:
    """Where one co-location's slowdown comes from, per CPI component."""

    victim: str
    aggressor: str
    mode: PairMode
    solo_cpi: float
    pair_cpi: float
    component_deltas: tuple[tuple[str, float], ...]

    @property
    def degradation(self) -> float:
        return 1.0 - self.solo_cpi / self.pair_cpi  # solver CPIs are reciprocals of positive IPCs

    def render(self) -> str:
        rows = [
            (label, delta, delta / (self.pair_cpi - self.solo_cpi)
             if self.pair_cpi > self.solo_cpi else 0.0)
            for label, delta in self.component_deltas
        ]
        return format_table(
            ("extra cycles from", "cycles/instruction", "share of slowdown"),
            rows,
            title=(f"{self.victim} degraded {self.degradation:.1%} by "
                   f"{self.aggressor} ({self.mode.upper()})"),
        )


def explain_pair(
    simulator: Simulator,
    victim: WorkloadProfile,
    aggressor: WorkloadProfile,
    mode: PairMode = "smt",
) -> InterferenceBreakdown:
    """Decompose a co-location's slowdown into CPI-stack deltas.

    Compares the victim's solo and co-located CPI stacks component by
    component — the causal view behind a single degradation number.
    """
    solo = simulator.run_solo(victim)
    pair = simulator.run_pair(victim, aggressor, mode).by_name(victim.name)
    if pair.cpi < solo.cpi:
        raise ConfigurationError(
            f"{victim.name} is not degraded by {aggressor.name}; "
            f"nothing to explain"
        )
    deltas = []
    for attr, label in _STACK_COMPONENTS:
        delta = getattr(pair.breakdown, attr) - getattr(solo.breakdown, attr)
        if abs(delta) > 1e-9:
            deltas.append((label, delta))
    deltas.sort(key=lambda item: -item[1])
    return InterferenceBreakdown(
        victim=victim.name,
        aggressor=aggressor.name,
        mode=mode,
        solo_cpi=solo.cpi,
        pair_cpi=pair.cpi,
        component_deltas=tuple(deltas),
    )
