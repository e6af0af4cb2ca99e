"""NumPy-vectorized batch backend for the co-run solver.

Every paper figure reduces to thousands of *independent* fixed-point
solves — 33x33 pair grids, ruler characterization sweeps, cluster builds.
:func:`solve_many` stacks those problems into flat arrays and runs the
damped fixed-point iteration for all of them at once, with per-problem
convergence masks so finished problems freeze while the rest keep
iterating.

Semantics are kept deliberately identical to the scalar reference in
:mod:`repro.smt.solver`:

- static per-context quantities (port demand, dependency bound, penalty
  CPIs, occupancy pressures, full-capacity hits) are the solver's
  per-(machine, profile) statics, computed once per profile and shared;
  the flat arrays gather one packed row per distinct profile;
- capacity shares and hit fractions are intrinsic (IPC-independent), so
  they are computed once up front with the scalar ``_update_capacities``
  — the same values the scalar loop reads from its memo every iteration
  — memoized per sharing group and per (profile, capacities) across the
  batch;
- the iteration is Gauss-Seidel *in placement order on every core*:
  a context's update reads only its own core's contexts (port,
  front-end and in-flight-miss sums) plus the iteration's DRAM latency,
  so contexts on different cores commute. Each iteration therefore
  sweeps *waves*: a context's wave is its rank among the contexts on
  its own core, in placement order (at most ``smt_contexts_per_core``
  waves). One wave update is vectorized across every problem and core,
  and a later wave sees the earlier waves' freshly damped IPCs and port
  placements, exactly as the scalar loop's later contexts see earlier
  ones on their core.

Sibling pressure (per-port, front-end and in-flight misses) is summed
per core from a per-wave table built once: the contexts sharing a core
with the wave's contexts, in flat order, each tagged with its core's
wave-local id. A wave update sums only that list, restricted to the
problems still iterating. Each core's total adds the same elements in
the same order a bincount over the whole batch would, so the results
are bitwise those of summing every context every time, and bitwise
those of updating one placement slot at a time.

Results stay columns: :func:`solve_many` returns a
:class:`~repro.smt.results.SolvedBatch` (one row per context, a few
numbers per problem), and a :class:`~repro.smt.results.RunResult` is
built only when a caller indexes it.

Because each problem performs the same arithmetic in the same order as a
scalar :func:`repro.smt.solver.solve` call (modulo float summation
association), per-context IPCs agree to ~1e-9, far inside the 1e-6
fixed-point tolerance. A problem's result is bitwise independent of the
rest of its batch: ``solve_many(ps)[i] == solve_many([ps[i]])[0]``.
Property tests in ``tests/properties/test_prop_batch.py`` enforce these
and the wave sweep's bitwise equality with the placement-slot sweep.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from repro.errors import ConvergenceError
from repro.obs import counter, histogram
from repro.isa.opcodes import ALL_PORTS, PORT_BINDINGS, UopKind
from repro.smt.params import MachineSpec
from repro.smt.results import N_COLUMNS, SolvedBatch, row_offsets
from repro.smt.solver import (_DAMPING, _MAX_ITERATIONS, _TOLERANCE,
                              ContextPlacement, _ContextState,
                              _ProfileStatics, _prepare, _update_capacities)

__all__ = ["solve_many"]

_N_PORTS = len(ALL_PORTS)
_PORT_COLUMNS = np.arange(_N_PORTS)

#: The order ``WorkloadProfile.uops`` enumerates kinds in; ties in the
#: flexible sort below must respect it to mirror ``split_port_demand``.
_UOP_FIELD_ORDER: tuple[UopKind, ...] = (
    UopKind.FP_MUL, UopKind.FP_ADD, UopKind.FP_SHF, UopKind.INT_ALU,
    UopKind.LOAD, UopKind.STORE, UopKind.BRANCH, UopKind.NOP,
)

#: Flexible kinds in the exact order the scalar balancer places them
#: (fewest port choices first, canonical uop order breaking ties).
_FLEX_KINDS: tuple[UopKind, ...] = tuple(sorted(
    (k for k in _UOP_FIELD_ORDER if len(PORT_BINDINGS[k]) >= 2),
    key=lambda k: len(PORT_BINDINGS[k]),
))


def _water_fill_rows(levels: np.ndarray, amount: np.ndarray) -> np.ndarray:
    """Vectorized water-fill: per-row increments equalizing lowest bins.

    ``levels`` is (m, k); ``amount`` is (m,). Closed form of the classic
    pour: the water level ``W`` satisfies ``sum_i max(0, W - l_i) ==
    amount`` with ``W = (amount + sum of the t* lowest levels) / t*``,
    where ``t*`` is the largest bin count whose candidate level stays
    above its highest member (the valid counts form a prefix).
    """
    k = levels.shape[1]
    sorted_levels = np.sort(levels, axis=1)
    csum = np.cumsum(sorted_levels, axis=1)
    counts = np.arange(1, k + 1, dtype=float)
    candidates = (amount[:, None] + csum) / counts  # smite: noqa[SMT302]: counts = arange(1, k+1) >= 1
    valid = candidates >= sorted_levels
    t_star = valid.sum(axis=1) - 1  # index of the last valid count
    water = candidates[np.arange(t_star.size), t_star]
    return np.maximum(0.0, water[:, None] - levels)


def _statics_row(statics: _ProfileStatics) -> list[float]:
    """One profile's packed statics (see ``_Packed`` for the columns)."""
    rates = {kind: rate for kind, rate, _ports in statics.flexible}
    return ([statics.port_demand[p] for p in ALL_PORTS]
            + [statics.pinned[p] for p in ALL_PORTS]
            + [rates.get(kind, 0.0) for kind in _FLEX_KINDS]
            + [max(statics.uops_total, 1.0), statics.dep_bound, statics.apki,
               statics.mlp, statics.throttle_cpi, statics.branch_cpi,
               statics.tlb_cpi, statics.icache_cpi])


class _Packed:
    """Flat context arrays for a batch of independent problems.

    Contexts are laid out problem by problem, in placement order
    ("flat order"). Per-profile columns are gathered from one packed row
    per distinct :class:`_ProfileStatics`.
    """

    def __init__(self, machine: MachineSpec,
                 problems: list[list[_ContextState]]) -> None:
        counts = np.array([len(states) for states in problems])
        self.n_problems = len(problems)
        self.prob = np.repeat(np.arange(self.n_problems), counts)
        flat = [state for states in problems for state in states]

        rows: dict[_ProfileStatics, int] = {}
        row_of = [rows.setdefault(state.statics, len(rows)) for state in flat]
        table = np.array([_statics_row(statics) for statics in rows])[row_of]
        n_flex = len(_FLEX_KINDS)
        self.port_demand = table[:, :_N_PORTS].copy()
        self.pinned = table[:, _N_PORTS:2 * _N_PORTS].copy()
        self.flex_rates = table[:, 2 * _N_PORTS:2 * _N_PORTS + n_flex].copy()
        (self.uops_eff, self.dep_bound, self.apki, self.mlp, self.throttle,
         self.branch_cpi, self.tlb_cpi, self.icache_cpi) = \
            table[:, 2 * _N_PORTS + n_flex:].T.copy()
        self.flex_ports = [np.array(PORT_BINDINGS[k], dtype=np.intp)
                           for k in _FLEX_KINDS]
        self.h1, self.h2, self.h3, self.hm = np.array(
            [(s.hits.l1, s.hits.l2, s.hits.l3, s.hits.memory) for s in flat]
        ).T.copy()

        # Core ids unique across problems; only their grouping matters.
        core = np.array([state.placement.core for state in flat])
        _keys, core_gid, core_count = np.unique(
            self.prob * machine.cores + core,
            return_inverse=True, return_counts=True)
        self.n_sib = core_count[core_gid] - 1

        self.ipc = np.ones(len(flat))
        self.breakdown = {field: np.zeros(len(flat)) for field in (
            "frontend", "port", "dependency", "compute", "contention",
            "smt_overhead", "memory")}
        self.breakdown["dependency"] = self.dep_bound

        # One table per wave: ``idx`` are the flat indices of the wave's
        # contexts (at most one per core, in flat order); ``sib`` lists,
        # in flat order, every context sharing a core with one of them,
        # and ``loc`` the position in ``idx`` of that core's wave context.
        # np.unique sorts by core, so a stable sort lists each core's
        # contexts contiguously in flat order and ranks them in place.
        by_core = np.argsort(core_gid, kind="stable")
        first = np.cumsum(core_count) - core_count
        wave = np.empty(len(flat), dtype=np.intp)
        wave[by_core] = np.arange(len(flat)) - np.repeat(first, core_count)
        self.waves: list[tuple[np.ndarray, ...]] = []
        local = np.full(len(core_count), -1, dtype=np.intp)
        for rank in range(int(core_count.max())):
            idx = np.flatnonzero(wave == rank)
            local[core_gid[idx]] = np.arange(idx.size)
            loc_all = local[core_gid]
            sib = np.flatnonzero(loc_all >= 0)
            self.waves.append((idx, self.prob[idx], sib, loc_all[sib]))
            local[core_gid[idx]] = -1


def _slot_update(machine: MachineSpec, pk: _Packed, idx: np.ndarray,
                 sib: np.ndarray, loc: np.ndarray,
                 dram_lat: np.ndarray) -> np.ndarray:
    """One Gauss-Seidel update of the contexts ``idx`` (vectorized).

    ``idx`` holds at most one context per core (one wave); ``sib``
    lists, in flat order, every context on the cores being updated and
    ``loc`` which of ``idx`` shares each one's core. Mirrors the scalar
    ``_compute_cpi`` plus the damped IPC update; returns each updated
    context's relative IPC delta.
    """
    width = machine.issue_width
    rho_cap = machine.contention_rho_cap
    m = idx.size
    own_ipc = pk.ipc[idx]
    sib_ipc = pk.ipc[sib]

    # Sibling background per port: per-core totals minus own contribution.
    # One bincount over fused (core, port) keys covers every port; each
    # core's total adds its contexts in flat order, as a bincount over
    # the whole batch would, so the sums are bitwise the same.
    own_demand = pk.port_demand[idx]
    own_ipd = own_ipc[:, None] * own_demand
    core_ipd = np.bincount(
        (loc[:, None] * _N_PORTS + _PORT_COLUMNS).ravel(),
        weights=(sib_ipc[:, None] * pk.port_demand[sib]).ravel(),
        minlength=m * _N_PORTS,
    ).reshape(m, _N_PORTS)
    bg = core_ipd - own_ipd

    # Re-place flexible uops against the sibling pressure (water-fill),
    # then damp — same steering-and-damping as the scalar solver.
    demand = pk.pinned[idx]
    for j, ports in enumerate(pk.flex_ports):
        levels = demand[:, ports] + bg[:, ports] / own_ipc[:, None]  # smite: noqa[SMT302]: pk.ipc starts positive and damped updates keep it positive
        demand[:, ports] += _water_fill_rows(levels, pk.flex_rates[idx, j])
    new_demand = _DAMPING * own_demand + (1.0 - _DAMPING) * demand
    pk.port_demand[idx] = new_demand

    port_bound = new_demand.max(axis=1)
    clipped = np.minimum(bg, rho_cap)
    inflation = machine.port_contention_kappa * clipped / (1.0 - clipped)  # smite: noqa[SMT302]: clipped <= contention_rho_cap, validated < 1 by MachineSpec
    port_delay = (new_demand * inflation).sum(axis=1)

    uops = pk.uops_eff[idx]
    fe_occ = uops / width  # smite: noqa[SMT302]: MachineSpec validates issue_width positive
    core_fe = np.bincount(loc, weights=sib_ipc * pk.uops_eff[sib],
                          minlength=m)
    rho_fe = (core_fe  # smite: noqa[SMT302]: MachineSpec validates issue_width positive
              - own_ipc * uops) / width
    clip_fe = np.minimum(rho_fe, rho_cap)
    fe_delay = fe_occ * (machine.frontend_contention_kappa  # smite: noqa[SMT302]: clip_fe <= contention_rho_cap, validated < 1 by MachineSpec
                         * clip_fe / (1.0 - clip_fe))

    throughput = np.maximum(fe_occ, port_bound)
    compute = np.maximum(throughput, pk.dep_bound[idx])
    visibility = np.minimum(1.0, throughput / compute)  # smite: noqa[SMT302]: compute = maximum(throughput, dep_bound) >= fe_occ > 0
    contention = (port_delay + fe_delay) * visibility
    n_sib = pk.n_sib[idx]
    has_sib = n_sib > 0
    overhead = np.where(has_sib, compute * machine.smt_static_overhead, 0.0)

    # MSHR-shared memory stalls: siblings' in-flight misses (Little's
    # law) reduce the overlap this context can sustain.
    dl = dram_lat[pk.prob[idx]]
    mlp, apki, hm = pk.mlp[idx], pk.apki[idx], pk.hm[idx]
    core_infl = np.bincount(loc, weights=np.minimum(
        pk.mlp[sib],
        sib_ipc * pk.apki[sib] * pk.hm[sib] * dram_lat[pk.prob[sib]],
    ), minlength=m)
    occupied = core_infl - np.minimum(mlp, own_ipc * apki * hm * dl)
    available = np.maximum(1.0, machine.mshr_count - occupied)
    mlp_eff = np.where(
        has_sib,
        np.minimum(mlp, available)
        / (1.0 + machine.smt_mlp_penalty * n_sib),
        mlp,
    )
    per_access = (pk.h1[idx] * machine.l1d.latency_cycles
                  + pk.h2[idx] * machine.l2.latency_cycles
                  + pk.h3[idx] * machine.l3.latency_cycles
                  + hm * dl)
    memory = np.where(
        apki > 0.0,
        apki * per_access / np.maximum(mlp_eff, 1.0),
        0.0,
    )

    cpi = (compute + contention + overhead + memory + pk.branch_cpi[idx]
           + pk.tlb_cpi[idx] + pk.icache_cpi[idx] + pk.throttle[idx])
    new_ipc = 1.0 / cpi  # smite: noqa[SMT302]: cpi includes compute, floored at the 1-uop front-end occupancy
    delta = np.abs(new_ipc - own_ipc) / np.maximum(own_ipc, 1e-12)
    pk.ipc[idx] = _DAMPING * own_ipc + (1.0 - _DAMPING) * new_ipc

    bd = pk.breakdown
    bd["frontend"][idx] = fe_occ
    bd["port"][idx] = port_bound
    bd["compute"][idx] = compute
    bd["contention"][idx] = contention
    bd["smt_overhead"][idx] = overhead
    bd["memory"][idx] = memory
    return delta


def solve_many(
    machine: MachineSpec,
    placements_list: Sequence[Sequence[ContextPlacement]],
    *,
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
) -> SolvedBatch:
    """Solve many independent placements in one stacked iteration.

    Each element of ``placements_list`` is an independent co-location
    problem (the argument :func:`repro.smt.solver.solve` takes); the
    returned batch's problems match its order. Problems converge
    independently — a problem that reaches the fixed-point tolerance
    freezes while the others keep iterating. The results stay columns;
    ``batch[i]`` builds problem ``i``'s :class:`RunResult`.
    """
    if not placements_list:
        return SolvedBatch(machine.name, (), np.zeros(0, dtype=np.int64),
                           np.zeros((0, N_COLUMNS)), np.zeros(0),
                           np.zeros(0, dtype=np.int64), row_offsets([]))
    started = time.perf_counter()
    counter("smt.batch.calls").inc()
    counter("smt.batch.problems").inc(len(placements_list))
    histogram("smt.batch.batch_size").record(len(placements_list))
    problems = [_prepare(machine, pls) for pls in placements_list]
    # Capacity shares and hit fractions depend only on intrinsic
    # pressures, so one pass pins them for the whole iteration (the
    # scalar loop recomputes the same values every iteration).
    memo: dict[tuple, Any] = {}
    for states in problems:
        _update_capacities(machine, states, memo)
    pk = _Packed(machine, problems)

    line = float(machine.l3.line_bytes)
    peak = machine.dram_bytes_per_cycle
    beta = machine.bandwidth_beta
    bw_cap = machine.bandwidth_rho_cap

    n_problems = pk.n_problems
    active = np.ones(n_problems, dtype=bool)
    factor = np.ones(n_problems)
    dram_rho = np.zeros(n_problems)
    iterations = np.zeros(n_problems, dtype=np.intp)
    updates = counter("smt.batch.updates")

    for iteration in range(1, max_iterations + 1):
        iterations[active] = iteration
        traffic = np.bincount(pk.prob,
                              weights=pk.ipc * pk.apki * pk.hm * line,
                              minlength=n_problems)
        rho = np.minimum(traffic / peak, bw_cap)  # smite: noqa[SMT302]: MachineSpec validates dram_bytes_per_cycle positive
        new_factor = 1.0 + beta * rho / (1.0 - rho)  # smite: noqa[SMT302]: rho <= bandwidth_rho_cap, validated < 1 by MachineSpec
        factor = np.where(active,
                          _DAMPING * factor + (1.0 - _DAMPING) * new_factor,
                          factor)
        dram_rho = np.where(active, rho, dram_rho)
        dram_lat = machine.dram_latency_cycles * factor

        max_delta = np.zeros(n_problems)
        for idx, p_idx, sib, loc in pk.waves:
            # Converged problems drop out of the wave and its sibling
            # table; the survivors keep their flat order.
            live = active[p_idx]
            if not live.all():
                if not live.any():
                    continue
                keep = live[loc]
                sib = sib[keep]
                loc = (np.cumsum(live) - 1)[loc[keep]]
                idx = idx[live]
                p_idx = p_idx[live]
            updates.inc()
            delta = _slot_update(machine, pk, idx, sib, loc, dram_lat)
            # A wave holds several contexts of one problem: fold them all.
            np.maximum.at(max_delta, p_idx, delta)
        active &= max_delta >= tolerance
        if not active.any():
            break
    if active.any():
        worst = float(max_delta[active].max())
        raise ConvergenceError(
            f"{int(active.sum())} of {n_problems} batched co-run solves did "
            f"not converge in {max_iterations} iterations "
            f"(worst delta {worst:.3e})"
        )

    flat = [state for states in problems for state in states]
    bd = pk.breakdown
    # One row per context, in the column order ``SolvedBatch`` documents.
    values = np.column_stack((
        pk.ipc, bd["frontend"], bd["port"], bd["dependency"],
        bd["compute"], bd["contention"], bd["smt_overhead"], bd["memory"],
        pk.branch_cpi, pk.tlb_cpi, pk.icache_cpi,
        pk.h1, pk.h2, pk.h3, pk.hm,
        np.array([state.capacities for state in flat]),
        np.minimum(1.0, pk.ipc[:, None] * pk.port_demand),
    ))
    results = SolvedBatch(
        machine.name,
        tuple([state.profile for state in flat]),
        np.array([state.placement.core for state in flat], dtype=np.int64),
        values, dram_rho, iterations.astype(np.int64),
        row_offsets([len(states) for states in problems]),
    )
    histogram("smt.batch.solve_seconds").record(time.perf_counter() - started)
    return results
