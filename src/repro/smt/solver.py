"""The steady-state co-run solver.

Every hardware context's IPC depends on its neighbours' IPCs — port
pressure, cache capacity shares, and DRAM traffic all scale with how fast
the other contexts are actually running. The solver finds the simultaneous
fixed point with damped iteration:

1. from the current IPC estimates, compute each context's arrival rate at
   every cache level and divide shared capacity by pressure;
2. recompute hit fractions, DRAM traffic, and the bandwidth latency factor;
3. rebuild each context's CPI: the *compute bound* (max of front-end,
   per-port — each inflated by sibling utilization — and dependency-chain
   terms), plus memory stalls, plus fixed penalties, plus the static SMT
   overhead for sharing a core at all;
4. damp the IPC update and repeat until the relative change is negligible.

The model is smooth and contractive under damping; ~50-150 iterations
converge to 1e-6 for every workload population we ship.

This module is the *reference implementation*. :mod:`repro.smt.batch`
vectorizes the identical iteration across many independent problems and
must stay in lockstep: any change to the CPI terms or the damping here
has a twin in ``batch.py``, and the property tests in
``tests/properties/test_prop_batch.py`` hold the two to 1e-6 agreement.
The batch solver updates all contexts of one within-core rank at once;
that matches this loop's placement order because a context's update
reads only its own core's contexts and the iteration's DRAM latency. An
update that read another core's fresh IPCs would break that equivalence.
Every ``Simulator`` solve goes through the batch solver (a miss that
nothing prefetched is a batch of one); this loop is the reference the
tests hold it to.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ConfigurationError, ConvergenceError
from repro.obs import counter, histogram
from repro.isa.opcodes import UOP_LATENCY, UopKind
from repro.smt.cache import (HitFractions, hit_fractions,
                             occupancy_pressures, share_capacity)
from repro.smt.membw import aggregate_traffic, dram_latency_factor
from repro.smt.params import MachineSpec
from repro.smt.ports import (balance_port_demand, contention_inflation,
                             split_port_demand)
from repro.smt.results import ContextResult, CpiBreakdown, RunResult
from repro.workloads.profile import WorkloadProfile

__all__ = ["ContextPlacement", "solve"]

_DAMPING = 0.5
_MAX_ITERATIONS = 500
_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ContextPlacement:
    """A profile assigned to a hardware context of a given core."""

    profile: WorkloadProfile
    core: int

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ConfigurationError(f"core index must be >= 0, got {self.core}")


@dataclass(frozen=True, eq=False)
class _ProfileStatics:
    """A profile's IPC-independent quantities on one machine.

    Computed once per (machine, profile) and shared by every context
    that runs the profile, across problems and calls: treat it as
    read-only (``port_demand`` and ``pinned`` are never mutated).
    """

    #: static port balance: the fixed point's initial port placement
    port_demand: dict[int, float]
    #: single-port demand and the flexible kinds left to place, in the
    #: order ``balance_port_demand`` places them
    pinned: dict[int, float]
    flexible: tuple[tuple[UopKind, float, tuple[int, ...]], ...]
    uops_total: float
    apki: float
    dep_bound: float
    mlp: float
    branch_cpi: float
    tlb_cpi: float
    icache_cpi: float
    throttle_cpi: float
    #: hit fractions and occupancy pressures at full capacities
    full_hits: HitFractions
    pressures: tuple[float, float, float]


#: (profile -> machine -> statics). Keyed on the profile's value (its
#: ``__eq__``), so a same-named ``replace`` gets its own entry; kept off
#: the profile instance, so a pickled profile carries none of it. The
#: keys are weak: an entry lives as long as its profile does.
_STATICS: weakref.WeakKeyDictionary[
    WorkloadProfile, dict[MachineSpec, _ProfileStatics]] = (
        weakref.WeakKeyDictionary())


def _compute_statics(machine: MachineSpec,
                     profile: WorkloadProfile) -> _ProfileStatics:
    uops = profile.uops
    pinned, flexible = split_port_demand(uops)
    apki = profile.accesses_per_instruction
    full = (float(machine.l1d.size_bytes), float(machine.l2.size_bytes),
            float(machine.l3.size_bytes))
    return _ProfileStatics(
        port_demand=balance_port_demand(uops),
        pinned=pinned,
        flexible=tuple(flexible),
        uops_total=profile.uops_per_instruction,
        apki=apki,
        dep_bound=_dependency_bound(profile),
        mlp=profile.mlp,
        branch_cpi=(profile.branch_misprediction_rate
                    * machine.branch_penalty_cycles),
        tlb_cpi=((profile.itlb_mpki + profile.dtlb_mpki) / 1000.0
                 * machine.tlb_walk_cycles),
        icache_cpi=profile.icache_mpki / 1000.0 * machine.icache_miss_cycles,
        throttle_cpi=float(getattr(profile, "throttle_cpi", 0.0) or 0.0),
        full_hits=hit_fractions(profile.strata, full,
                                machine.capture_exponent),
        pressures=occupancy_pressures(
            profile.strata, apki, full, machine.capture_exponent,
            reuse_exponent=machine.reuse_exponent,
        ),
    )


@dataclass
class _ContextState:
    """A context's shared statics plus its iteration state."""

    placement: ContextPlacement
    statics: _ProfileStatics
    port_demand: dict[int, float]
    capacities: tuple[float, float, float]
    hits: HitFractions
    ipc: float = 1.0
    breakdown: CpiBreakdown | None = None

    @property
    def profile(self) -> WorkloadProfile:
        return self.placement.profile


def _dependency_bound(profile: WorkloadProfile) -> float:
    """Serialized-chain cycles per instruction."""
    path = sum(rate * UOP_LATENCY[kind] for kind, rate in profile.uops.items())
    return profile.dependency_factor * path


def _prepare(machine: MachineSpec,
             placements: Sequence[ContextPlacement]) -> list[_ContextState]:
    if not placements:
        raise ConfigurationError("at least one context placement is required")
    per_core: dict[int, int] = {}
    for pl in placements:
        if pl.core >= machine.cores:
            raise ConfigurationError(
                f"core {pl.core} does not exist on {machine.name} "
                f"({machine.cores} cores)"
            )
        per_core[pl.core] = per_core.get(pl.core, 0) + 1
        if per_core[pl.core] > machine.smt_contexts_per_core:
            raise ConfigurationError(
                f"core {pl.core} given more contexts than its "
                f"{machine.smt_contexts_per_core} SMT slots"
            )
    full = (float(machine.l1d.size_bytes), float(machine.l2.size_bytes),
            float(machine.l3.size_bytes))
    states = []
    for pl in placements:
        per_machine = _STATICS.get(pl.profile)
        if per_machine is None:
            per_machine = _STATICS[pl.profile] = {}
        statics = per_machine.get(machine)
        if statics is None:
            statics = per_machine[machine] = _compute_statics(machine,
                                                              pl.profile)
        states.append(_ContextState(
            placement=pl, statics=statics,
            port_demand=statics.port_demand,
            capacities=full, hits=statics.full_hits,
        ))
    return states


def _cache_entities(group: Sequence[_ContextState]) -> list[list[int]]:
    """Partition a sharing group into cache-occupancy entities.

    Threads of a ``shares_memory`` profile work on one data set, so they
    hold cache lines collectively rather than competing with each other;
    everything else is its own entity. Entities list group positions.
    """
    singles: list[list[int]] = []
    shared: dict[str, list[int]] = {}
    for pos, state in enumerate(group):
        profile = state.profile
        if profile.shares_memory:
            shared.setdefault(profile.name, []).append(pos)
        else:
            singles.append([pos])
    return singles + list(shared.values())


def _share_level(machine: MachineSpec, level_idx: int,
                 group: Sequence[_ContextState]) -> list[float]:
    """Each group member's share of one cache level, in group order."""
    entities = _cache_entities(group)
    pressures = []
    for members in entities:
        # Pressure is each context's *intrinsic* per-level occupancy
        # demand (precomputed at full capacity; see
        # cache.occupancy_pressures). Scaling by achieved IPC instead
        # would create winner-take-all feedback — whoever slows down
        # first loses all capacity — which is both unphysical for
        # set-sampled LRU and bistable in the fixed point. An entity's
        # members access one shared data set, so their rates sum over a
        # common footprint.
        pressures.append(sum(group[pos].statics.pressures[level_idx]
                             for pos in members))
    spec = machine.cache_levels()[level_idx]
    shares = share_capacity(float(spec.size_bytes), pressures,
                            machine.capacity_share_floor)
    caps = [0.0] * len(group)
    for members, cap in zip(entities, shares):
        for pos in members:
            caps[pos] = cap
    return caps


def _update_capacities(machine: MachineSpec, states: list[_ContextState],
                       memo: dict[tuple, Any]) -> None:
    """Divide shared cache capacity by pressure at every level.

    ``memo`` carries the pure parts across calls on one machine: each
    sharing group's split is keyed on its members' statics, and each
    profile's hit fractions on its statics and capacities. A scalar
    solve keeps one across its iterations; a batch shares one across
    its problems.
    """
    # Grouping: L1/L2 shared per core, L3 shared chip-wide.
    core_groups: dict[int, list[int]] = {}
    for idx, state in enumerate(states):
        core_groups.setdefault(state.placement.core, []).append(idx)
    groups = [(level_idx, group) for level_idx in (0, 1)
              for group in core_groups.values()]
    groups.append((2, list(range(len(states)))))
    new_caps = [[0.0, 0.0, 0.0] for _ in states]
    for level_idx, group in groups:
        members = [states[idx] for idx in group]
        key = (level_idx, *(state.statics for state in members))
        caps = memo.get(key)
        if caps is None:
            caps = memo[key] = _share_level(machine, level_idx, members)
        for idx, cap in zip(group, caps):
            new_caps[idx][level_idx] = cap

    for state, caps in zip(states, new_caps):
        capacities = (caps[0], caps[1], caps[2])
        state.capacities = capacities
        key = (state.statics, capacities)
        hits = memo.get(key)
        if hits is None:
            hits = memo[key] = hit_fractions(
                state.profile.strata, capacities, machine.capture_exponent)
        state.hits = hits


def _inflight_misses(state: _ContextState, dram_latency: float) -> float:
    """A context's average outstanding DRAM misses (Little's law)."""
    if state.statics.apki == 0.0:
        return 0.0
    miss_rate = state.ipc * state.statics.apki * state.hits.memory
    return min(state.profile.mlp, miss_rate * dram_latency)


def _memory_stall(machine: MachineSpec, state: _ContextState,
                  siblings: list["_ContextState"],
                  dram_latency: float) -> float:
    if state.statics.apki == 0.0:
        return 0.0
    hits = state.hits
    per_access = (hits.l1 * machine.l1d.latency_cycles
                  + hits.l2 * machine.l2.latency_cycles
                  + hits.l3 * machine.l3.latency_cycles
                  + hits.memory * dram_latency)
    # The core's MSHRs are competitively shared: the siblings' in-flight
    # misses reduce the overlap this context can sustain. A compute-only
    # sibling leaves the full complement; a streaming sibling throttles a
    # streaming victim hard — memory-on-memory interference is mutual.
    mlp = state.profile.mlp
    if siblings:
        occupied = sum(_inflight_misses(s, dram_latency) for s in siblings)
        available = max(1.0, machine.mshr_count - occupied)
        mlp = min(mlp, available)
        mlp /= 1.0 + machine.smt_mlp_penalty * len(siblings)
    return state.statics.apki * per_access / max(mlp, 1.0)


def _compute_cpi(machine: MachineSpec, states: list[_ContextState],
                 idx: int, dram_latency: float) -> tuple[float, CpiBreakdown]:
    state = states[idx]
    core = state.placement.core
    siblings = [s for j, s in enumerate(states)
                if j != idx and s.placement.core == core]

    # Re-place flexible uops against the siblings' current port pressure —
    # the OoO scheduler steers INT/loads away from a saturated port. The
    # update is damped: identical siblings would otherwise chase each
    # other's placement and oscillate instead of converging.
    background = {
        port: sum(s.ipc * s.port_demand[port] for s in siblings)
        for port in state.port_demand
    }
    balanced = balance_port_demand(
        state.profile.uops, background=background, own_rate=state.ipc
    )
    state.port_demand = {
        port: _DAMPING * state.port_demand[port]
              + (1.0 - _DAMPING) * balanced[port]
        for port in balanced
    }

    # Per-port occupancy plus additive queueing delay from sibling
    # utilization of the same port. The delay is additive, not folded
    # into the max(): waiting behind a sibling's uops is serialization
    # the out-of-order window cannot hide.
    port_bound = 0.0
    port_delay = 0.0
    for port, demand in state.port_demand.items():
        if demand == 0.0:
            continue
        port_bound = max(port_bound, demand)
        rho = background[port]
        if rho > 0.0:
            factor = contention_inflation(rho, machine.port_contention_kappa,
                                          machine.contention_rho_cap)
            port_delay += demand * (factor - 1.0)

    # Shared front end, same treatment with its own (gentler) kappa.
    # Every instruction occupies at least one issue/retire slot, so the
    # occupancy floor is 1 uop/instruction even for sparse uop mixes.
    width = machine.issue_width
    frontend = max(state.statics.uops_total, 1.0) / width  # smite: noqa[SMT302]: MachineSpec validates issue_width positive
    fe_delay = 0.0
    rho_fe = sum(s.ipc * max(s.statics.uops_total, 1.0) for s in siblings) / width  # smite: noqa[SMT302]: MachineSpec validates issue_width positive
    if rho_fe > 0.0:
        fe_factor = contention_inflation(
            rho_fe, machine.frontend_contention_kappa,
            machine.contention_rho_cap,
        )
        fe_delay = frontend * (fe_factor - 1.0)

    compute = max(frontend, port_bound, state.statics.dep_bound)
    # Out-of-order slack hides part of the queueing delay: a context whose
    # throughput bound is far above its port occupancy can overlap waits
    # with other work, so only the port-bound fraction of the delay is
    # exposed. This is what decouples sensitivity from contentiousness
    # within a dimension (the paper's Finding 3): pressure *emitted* does
    # not depend on slack, pressure *felt* does.
    visibility = min(1.0, max(frontend, port_bound) / compute) \
        if compute > 0.0 else 1.0
    contention = (port_delay + fe_delay) * visibility
    overhead = compute * machine.smt_static_overhead if siblings else 0.0
    memory = _memory_stall(machine, state, siblings, dram_latency)
    breakdown = CpiBreakdown(
        frontend=frontend,
        port=port_bound,
        dependency=state.statics.dep_bound,
        compute=compute,
        contention=contention,
        smt_overhead=overhead,
        memory=memory,
        branch=state.statics.branch_cpi,
        tlb=state.statics.tlb_cpi,
        icache=state.statics.icache_cpi,
    )
    cpi = breakdown.total + state.statics.throttle_cpi
    return cpi, breakdown


def solve(
    machine: MachineSpec,
    placements: Sequence[ContextPlacement],
    *,
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
) -> RunResult:
    """Solve the steady state for a set of co-located contexts."""
    started = time.perf_counter()
    states = _prepare(machine, placements)
    line = float(machine.l3.line_bytes)
    peak = machine.dram_bytes_per_cycle

    iterations = 0
    dram_rho = 0.0
    factor = 1.0
    memo: dict[tuple, Any] = {}
    for iteration in range(1, max_iterations + 1):
        iterations = iteration
        _update_capacities(machine, states, memo)
        traffic = aggregate_traffic(
            [s.ipc * s.statics.apki * s.hits.memory * line for s in states]
        )
        dram_rho = min(traffic / peak, machine.bandwidth_rho_cap)  # smite: noqa[SMT302]: MachineSpec validates dram_bytes_per_cycle positive
        # The latency factor is damped across iterations: near saturation
        # it swings by multiples, and the IPC damping alone cannot keep
        # the saturated/unsaturated flip-flop from oscillating.
        new_factor = dram_latency_factor(traffic, peak, machine.bandwidth_beta,
                                         machine.bandwidth_rho_cap)
        factor = _DAMPING * factor + (1.0 - _DAMPING) * new_factor
        dram_latency = machine.dram_latency_cycles * factor

        max_delta = 0.0
        for idx, state in enumerate(states):
            cpi, breakdown = _compute_cpi(machine, states, idx, dram_latency)
            new_ipc = 1.0 / cpi  # smite: noqa[SMT302]: cpi includes compute, floored at the 1-uop front-end occupancy
            delta = abs(new_ipc - state.ipc) / max(state.ipc, 1e-12)
            max_delta = max(max_delta, delta)
            state.ipc = _DAMPING * state.ipc + (1.0 - _DAMPING) * new_ipc
            state.breakdown = breakdown
        if max_delta < tolerance:
            break
    else:
        raise ConvergenceError(
            f"co-run solve did not converge in {max_iterations} iterations "
            f"(last delta {max_delta:.3e})"
        )

    counter("smt.solver.solves").inc()
    histogram("smt.solver.iterations").record(iterations)
    histogram("smt.solver.solve_seconds").record(time.perf_counter() - started)

    contexts = []
    for state in states:
        assert state.breakdown is not None
        utilization = {
            port: min(1.0, state.ipc * demand)
            for port, demand in state.port_demand.items()
        }
        contexts.append(
            ContextResult(
                profile=state.profile,
                core=state.placement.core,
                ipc=state.ipc,
                breakdown=state.breakdown,
                hits=state.hits,
                port_utilization=utilization,
                effective_capacities=state.capacities,
            )
        )
    return RunResult(
        machine_name=machine.name,
        contexts=tuple(contexts),
        dram_utilization=dram_rho,
        iterations=iterations,
    )
