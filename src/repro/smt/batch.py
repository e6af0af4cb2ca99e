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
  one array pass computes them up front for the whole batch — the values
  the scalar loop's ``_update_capacities`` reads every iteration. Each
  cache-sharing group's split sums its entities' pressures with
  ``np.bincount`` in the order the scalar ``_share_level`` adds them, and
  hit fractions come from the scalar ``hit_fractions``, once per distinct
  (profile statics, capacities) row (its ``**`` is not vectorized:
  ``np.power`` need not round like Python's);
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
those of updating one placement slot at a time. The static columns a
wave update reads are gathered once per set of iterating problems
(:class:`_Wave`), not on every update.

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
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.obs import counter, histogram
from repro.isa.opcodes import ALL_PORTS, PORT_BINDINGS, UopKind
from repro.smt import solver
from repro.smt.cache import hit_fractions
from repro.smt.params import MachineSpec
from repro.smt.results import N_COLUMNS, SolvedBatch, row_offsets
from repro.smt.solver import (_DAMPING, _MAX_ITERATIONS, _TOLERANCE,
                              ContextPlacement, _ProfileStatics, _prepare)
from repro.workloads.profile import WorkloadProfile

__all__ = ["solve_many"]

_N_PORTS = len(ALL_PORTS)
_PORT_ROWS = np.arange(_N_PORTS)[:, None]

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
_FLEX_PORTS = [PORT_BINDINGS[k] for k in _FLEX_KINDS]

#: Breakdown terms a wave update recomputes (the others are static).
_DYNAMIC_TERMS = ("port", "compute", "contention", "smt_overhead", "memory")


def _water_fill(levels: Sequence[np.ndarray],
                amount: np.ndarray) -> list[np.ndarray]:
    """Per-row increments pouring ``amount`` (>= 0) into 2 or 3 bins.

    ``levels`` holds one column per bin. Closed form of the classic
    pour: the water level is ``W = (amount + sum of the t lowest
    levels) / t``, where ``t`` counts the bin counts whose candidate
    level stays above their highest member. A min/max network sorts
    each row, then the arithmetic is the general sort-based form's
    (cumulative sums, candidates, count), so the increments are bitwise
    its increments; ``PORT_BINDINGS`` spreads no kind over other bin
    counts.
    """
    if len(levels) == 2:
        low, top = np.minimum(*levels), np.maximum(*levels)
        two = (amount + (low + top)) / 2.0
        # The one-bin candidate (amount + low) / 1 always counts.
        water = np.where(two >= top, two, amount + low)
    else:
        a, b, c = levels
        low, high = np.minimum(a, b), np.maximum(a, b)
        mid, top = np.minimum(high, c), np.maximum(high, c)
        low, mid = np.minimum(low, mid), np.maximum(low, mid)
        pair = low + mid
        two = (amount + pair) / 2.0
        three = (amount + (pair + top)) / 3.0
        two_ok, three_ok = two >= mid, three >= top
        water = np.where(two_ok == three_ok,
                         np.where(two_ok, three, amount + low), two)
    return [np.maximum(0.0, water - level) for level in levels]


def _statics_row(statics: _ProfileStatics) -> list[float]:
    """One profile's packed statics (see ``_Packed`` for the columns)."""
    rates = {kind: rate for kind, rate, _ports in statics.flexible}
    return ([statics.port_demand[p] for p in ALL_PORTS]
            + [statics.pinned[p] for p in ALL_PORTS]
            + [rates.get(kind, 0.0) for kind in _FLEX_KINDS]
            + [max(statics.uops_total, 1.0), statics.dep_bound, statics.apki,
               statics.mlp, statics.throttle_cpi, statics.branch_cpi,
               statics.tlb_cpi, statics.icache_cpi])


def _statics(machine: MachineSpec,
             profile: WorkloadProfile) -> _ProfileStatics:
    """The profile's statics on ``machine``, from the solver's memo."""
    per_machine = solver._STATICS.get(profile)
    if per_machine is None:
        per_machine = solver._STATICS[profile] = {}
    statics = per_machine.get(machine)
    if statics is None:
        statics = per_machine[machine] = solver._compute_statics(machine,
                                                                 profile)
    return statics


def _check(machine: MachineSpec,
           placements_list: Sequence[Sequence[ContextPlacement]],
           counts: np.ndarray, prob: np.ndarray,
           core: np.ndarray) -> np.ndarray:
    """Each context's core group, checked as ``solve`` checks a problem.

    Raises ``solve``'s error for the first problem ``solve`` rejects.
    """
    cores = machine.cores
    _keys, group, on_core = np.unique(
        prob * (cores + 1) + np.minimum(core, cores),
        return_inverse=True, return_counts=True)
    wrong = (core >= cores) | (on_core[group] > machine.smt_contexts_per_core)
    if wrong.any() or not counts.all():
        bad = counts == 0
        bad[prob[wrong]] = True
        # The scalar set-up raises the message ``solve`` would.
        _prepare(machine, placements_list[int(bad.argmax())])
        raise ConfigurationError("invalid context placement")
    return group.reshape(-1)


def _cache_entities(group: np.ndarray,
                    shared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each context's cache-occupancy entity and each entity's first context.

    ``shared`` is a context's ``shares_memory`` name id, or -1. Within a
    sharing group, the contexts of one such name hold cache lines
    collectively and form one entity; every other context is its own.
    """
    n = group.size
    if (shared < 0).all():
        own = np.arange(n)
        return own, own
    key = np.where(shared < 0, np.arange(n),
                   n + group * (int(shared.max()) + 1) + shared)
    _keys, first, entity = np.unique(key, return_index=True,
                                     return_inverse=True)
    return entity.reshape(-1), first


def _share_level(total: float, floor: float, pressure: np.ndarray,
                 group: np.ndarray, entity: np.ndarray, first: np.ndarray,
                 shared: np.ndarray) -> np.ndarray:
    """Each context's share of one cache level, split per sharing group.

    Bitwise the scalar ``_share_level``/``share_capacity``: an entity's
    pressure adds its members in placement order, and a group's total
    adds its active entities in the scalar's entity order (its plain
    contexts in placement order, then its shared entities by first
    member). ``np.bincount`` adds each bin's weights in input order.
    """
    pressures = np.bincount(entity, weights=pressure, minlength=first.size)
    owner = group[first]
    n_groups = int(group.max()) + 1
    active = pressures > 0.0
    order = np.lexsort((first, shared[first] >= 0))
    totals = np.bincount(owner[order],
                         weights=np.where(active, pressures, 0.0)[order],
                         minlength=n_groups)
    contested = np.bincount(owner[active], minlength=n_groups) > 1
    caps = np.full(first.size, total)
    split = np.flatnonzero(active & contested[owner])
    caps[split] = total * np.minimum(1.0, np.maximum(
        floor, pressures[split] / totals[owner[split]]))  # smite: noqa[SMT302]: a contested group's total adds its positive pressures
    return caps[entity]


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of ``keys``, and each row's
    index into those firsts."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


class _Packed:
    """Flat context arrays for a batch of independent problems.

    Contexts are laid out problem by problem, in placement order
    ("flat order"): ``prob`` and ``core`` are each context's problem and
    core, ``statics`` its packed statics row (``_statics_row``), and
    ``hits``/``capacities`` its hit fractions (L1, L2, L3, memory) and
    effective capacities (L1, L2, L3).
    """

    def __init__(self, machine: MachineSpec, prob: np.ndarray,
                 core: np.ndarray, statics: np.ndarray, hits: np.ndarray,
                 capacities: np.ndarray) -> None:
        n = prob.size
        self.n_problems = int(prob[-1]) + 1
        self.prob = prob
        self.core = core
        n_flex = len(_FLEX_KINDS)
        # Per-port columns are port-major: one contiguous row per port.
        self.port_demand = statics[:, :_N_PORTS].T.copy()
        self.pinned = statics[:, _N_PORTS:2 * _N_PORTS].T.copy()
        self.flex_rates = statics[:, 2 * _N_PORTS:2 * _N_PORTS + n_flex].copy()
        (self.uops_eff, self.dep_bound, self.apki, self.mlp, self.throttle,
         self.branch_cpi, self.tlb_cpi, self.icache_cpi) = \
            statics[:, 2 * _N_PORTS + n_flex:].T.copy()
        self.h1, self.h2, self.h3, self.hm = hits.T.copy()
        self.capacities = capacities

        # Core ids unique across problems; only their grouping matters.
        _keys, core_gid, core_count = np.unique(
            prob * machine.cores + core,
            return_inverse=True, return_counts=True)
        self.n_sib = core_count[core_gid] - 1

        self.ipc = np.ones(n)
        self.breakdown = {field: np.zeros(n) for field in _DYNAMIC_TERMS}
        self.breakdown["frontend"] = self.uops_eff / machine.issue_width  # smite: noqa[SMT302]: MachineSpec validates issue_width positive
        self.breakdown["dependency"] = self.dep_bound

        # One table per wave: ``idx`` are the flat indices of the wave's
        # contexts (at most one per core, in flat order); ``sib`` lists,
        # in flat order, every context sharing a core with one of them,
        # and ``loc`` the position in ``idx`` of that core's wave context.
        # np.unique sorts by core, so a stable sort lists each core's
        # contexts contiguously in flat order and ranks them in place.
        by_core = np.argsort(core_gid, kind="stable")
        first = np.cumsum(core_count) - core_count
        wave = np.empty(n, dtype=np.intp)
        wave[by_core] = np.arange(n) - np.repeat(first, core_count)
        self.waves: list[tuple[np.ndarray, ...]] = []
        local = np.full(len(core_count), -1, dtype=np.intp)
        for rank in range(int(core_count.max())):
            idx = np.flatnonzero(wave == rank)
            local[core_gid[idx]] = np.arange(idx.size)
            loc_all = local[core_gid]
            sib = np.flatnonzero(loc_all >= 0)
            self.waves.append((idx, self.prob[idx], sib, loc_all[sib]))
            local[core_gid[idx]] = -1


def _pack(machine: MachineSpec,
          placements_list: Sequence[Sequence[ContextPlacement]],
          ) -> tuple[_Packed, tuple[WorkloadProfile, ...]]:
    """Validate a batch and lay it out as flat arrays, in array passes.

    Returns the packed batch and each context's profile.
    """
    counts = np.array([len(pls) for pls in placements_list], dtype=np.intp)
    flat = [pl for pls in placements_list for pl in pls]
    prob = np.repeat(np.arange(counts.size), counts)
    core = np.array([pl.core for pl in flat], dtype=np.int64)
    core_gid = _check(machine, placements_list, counts, prob, core)
    profiles = tuple([pl.profile for pl in flat])

    # One statics row per distinct statics; profile objects are told
    # apart by identity first, so the memo hashes each object once.
    slot: dict[int, int] = {}
    of_object = np.array([slot.setdefault(id(p), len(slot))
                          for p in profiles], dtype=np.intp)
    rows: dict[_ProfileStatics, int] = {}
    row_profiles: list[WorkloadProfile] = []
    row_of_object = []
    for profile in {id(p): p for p in profiles}.values():
        row = rows.setdefault(_statics(machine, profile), len(rows))
        if row == len(row_profiles):
            row_profiles.append(profile)
        row_of_object.append(row)
    row = np.array(row_of_object, dtype=np.intp)[of_object]
    table = list(rows)

    # Capacity shares: L1/L2 split per core, L3 per problem.
    names: dict[str, int] = {}
    shared = np.array([names.setdefault(p.name, len(names))
                       if p.shares_memory else -1
                       for p in row_profiles], dtype=np.intp)[row]
    pressures = np.array([s.pressures for s in table])[row]
    capacities = np.empty((row.size, 3))
    floor = machine.capacity_share_floor
    for groups, levels in ((core_gid, (0, 1)), (prob, (2,))):
        entity, first = _cache_entities(groups, shared)
        for level in levels:
            capacities[:, level] = _share_level(
                float(machine.cache_levels()[level].size_bytes), floor,
                pressures[:, level], groups, entity, first, shared)

    # Hit fractions once per distinct (statics, capacities) row.
    full = tuple(float(spec.size_bytes) for spec in machine.cache_levels())
    firsts, key_of = _distinct_rows(np.column_stack((row, capacities)))
    hits = []
    for r, caps in zip(row[firsts].tolist(), capacities[firsts].tolist()):
        found = (table[r].full_hits if tuple(caps) == full else hit_fractions(
            row_profiles[r].strata, (caps[0], caps[1], caps[2]),
            machine.capture_exponent))
        hits.append((found.l1, found.l2, found.l3, found.memory))

    statics_rows = np.array([_statics_row(s) for s in table])[row]
    pk = _Packed(machine, prob, core, statics_rows,
                 np.array(hits)[key_of], capacities)
    return pk, profiles


class _Wave:
    """One wave's contexts of the iterating problems, statics gathered.

    Built from a wave table of ``_Packed.waves`` restricted to the
    problems still iterating; the update reads its static columns from
    here, and it keeps the update's last breakdown terms until
    :meth:`flush` writes them back.
    """

    def __init__(self, machine: MachineSpec, pk: _Packed, idx: np.ndarray,
                 p_idx: np.ndarray, sib: np.ndarray,
                 loc: np.ndarray) -> None:
        self.idx, self.p_idx, self.sib, self.loc = idx, p_idx, sib, loc
        self.m = m = idx.size
        self.port_keys = (_PORT_ROWS * m + loc).ravel()
        self.pinned = pk.pinned.take(idx, axis=1)
        self.flex_rates = [pk.flex_rates[idx, j]
                           for j in range(len(_FLEX_KINDS))]
        self.uops = pk.uops_eff[idx]
        self.fe_occ = pk.breakdown["frontend"][idx]
        self.dep_bound = pk.dep_bound[idx]
        n_sib = pk.n_sib[idx]
        self.has_sib = n_sib > 0
        self.mlp_split = 1.0 + machine.smt_mlp_penalty * n_sib
        self.mlp, self.apki, self.hm = pk.mlp[idx], pk.apki[idx], pk.hm[idx]
        self.accesses = self.apki > 0.0
        self.cache_access = (pk.h1[idx] * machine.l1d.latency_cycles
                             + pk.h2[idx] * machine.l2.latency_cycles
                             + pk.h3[idx] * machine.l3.latency_cycles)
        self.penalties = (pk.branch_cpi[idx], pk.tlb_cpi[idx],
                          pk.icache_cpi[idx], pk.throttle[idx])
        self.sib_uops = pk.uops_eff[sib]
        self.sib_mlp, self.sib_apki, self.sib_hm = (
            pk.mlp[sib], pk.apki[sib], pk.hm[sib])
        self.sib_prob = pk.prob[sib]
        # ``idx`` is in flat order, so each problem's contexts are a run.
        heads = np.flatnonzero(np.diff(p_idx, prepend=-1))
        self.heads = heads if heads.size < m else None
        self.head_problems = p_idx[heads]
        self.terms: tuple[np.ndarray, ...] = ()

    def live(self, machine: MachineSpec, pk: _Packed,
             active: np.ndarray) -> "_Wave | None":
        """This wave restricted to the ``active`` problems (None if none)."""
        live = active[self.p_idx]
        if live.all():
            return self
        if not live.any():
            return None
        keep = live[self.loc]
        return _Wave(machine, pk, self.idx[live], self.p_idx[live],
                     self.sib[keep], (np.cumsum(live) - 1)[self.loc[keep]])

    def flush(self, pk: _Packed) -> None:
        """Write the last update's breakdown terms into ``pk``."""
        for name, term in zip(_DYNAMIC_TERMS, self.terms):
            pk.breakdown[name][self.idx] = term

    def fold(self, max_delta: np.ndarray, delta: np.ndarray) -> None:
        """Raise each problem's ``max_delta`` to its contexts' deltas."""
        problems = self.head_problems
        if self.heads is not None:  # several contexts of one problem
            delta = np.maximum.reduceat(delta, self.heads)
        max_delta[problems] = np.maximum(max_delta[problems], delta)


def _slot_update(machine: MachineSpec, pk: _Packed, w: _Wave,
                 dram_lat: np.ndarray) -> np.ndarray:
    """One Gauss-Seidel update of a wave's contexts (vectorized).

    ``w`` holds at most one context per core; its sibling table lists,
    in flat order, every context on the cores being updated and which
    of the wave's contexts shares each one's core. Mirrors the scalar
    ``_compute_cpi`` plus the damped IPC update; returns each updated
    context's relative IPC delta.
    """
    rho_cap = machine.contention_rho_cap
    idx, sib, loc, m = w.idx, w.sib, w.loc, w.m
    own_ipc = pk.ipc[idx]
    sib_ipc = pk.ipc[sib]

    # Sibling background per port: per-core totals minus own contribution.
    # One bincount over fused (port, core) keys covers every port; each
    # core's total adds its contexts in flat order, as a bincount over
    # the whole batch would, so the sums are bitwise the same.
    own_demand = pk.port_demand.take(idx, axis=1)
    own_ipd = own_ipc * own_demand
    core_ipd = np.bincount(
        w.port_keys,
        weights=(sib_ipc * pk.port_demand.take(sib, axis=1)).ravel(),
        minlength=_N_PORTS * m,
    ).reshape(_N_PORTS, m)
    bg = core_ipd - own_ipd

    # Re-place flexible uops against the sibling pressure (water-fill),
    # then damp — same steering-and-damping as the scalar solver.
    demand = w.pinned.copy()
    relative = bg / own_ipc  # smite: noqa[SMT302]: pk.ipc starts positive and damped updates keep it positive
    for ports, rates in zip(_FLEX_PORTS, w.flex_rates):
        levels = [demand[p] + relative[p] for p in ports]
        for p, increment in zip(ports, _water_fill(levels, rates)):
            demand[p] += increment
    new_demand = _DAMPING * own_demand + (1.0 - _DAMPING) * demand
    pk.port_demand[:, idx] = new_demand

    # A reduction over the port rows adds them in port order, as the
    # scalar loop does.
    port_bound = new_demand.max(axis=0)
    clipped = np.minimum(bg, rho_cap)
    inflation = machine.port_contention_kappa * clipped / (1.0 - clipped)  # smite: noqa[SMT302]: clipped <= contention_rho_cap, validated < 1 by MachineSpec
    port_delay = (new_demand * inflation).sum(axis=0)

    fe_occ = w.fe_occ
    core_fe = np.bincount(loc, weights=sib_ipc * w.sib_uops, minlength=m)
    rho_fe = (core_fe  # smite: noqa[SMT302]: MachineSpec validates issue_width positive
              - own_ipc * w.uops) / machine.issue_width
    clip_fe = np.minimum(rho_fe, rho_cap)
    fe_delay = fe_occ * (machine.frontend_contention_kappa  # smite: noqa[SMT302]: clip_fe <= contention_rho_cap, validated < 1 by MachineSpec
                         * clip_fe / (1.0 - clip_fe))

    throughput = np.maximum(fe_occ, port_bound)
    compute = np.maximum(throughput, w.dep_bound)
    visibility = np.minimum(1.0, throughput / compute)  # smite: noqa[SMT302]: compute = maximum(throughput, dep_bound) >= fe_occ > 0
    contention = (port_delay + fe_delay) * visibility
    overhead = np.where(w.has_sib, compute * machine.smt_static_overhead, 0.0)

    # MSHR-shared memory stalls: siblings' in-flight misses (Little's
    # law) reduce the overlap this context can sustain.
    dl = dram_lat[w.p_idx]
    mlp, apki, hm = w.mlp, w.apki, w.hm
    core_infl = np.bincount(loc, weights=np.minimum(
        w.sib_mlp, sib_ipc * w.sib_apki * w.sib_hm * dram_lat[w.sib_prob],
    ), minlength=m)
    occupied = core_infl - np.minimum(mlp, own_ipc * apki * hm * dl)
    available = np.maximum(1.0, machine.mshr_count - occupied)
    mlp_eff = np.where(w.has_sib,
                       np.minimum(mlp, available) / w.mlp_split,  # smite: noqa[SMT302]: mlp_split = 1 + smt_mlp_penalty * n_sib >= 1
                       mlp)
    memory = np.where(
        w.accesses,
        apki * (w.cache_access + hm * dl) / np.maximum(mlp_eff, 1.0),
        0.0,
    )

    branch, tlb, icache, throttle = w.penalties
    cpi = (compute + contention + overhead + memory + branch + tlb + icache
           + throttle)
    new_ipc = 1.0 / cpi  # smite: noqa[SMT302]: cpi includes compute, floored at the 1-uop front-end occupancy
    delta = np.abs(new_ipc - own_ipc) / np.maximum(own_ipc, 1e-12)
    pk.ipc[idx] = _DAMPING * own_ipc + (1.0 - _DAMPING) * new_ipc
    w.terms = (port_bound, compute, contention, overhead, memory)
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
    problem (the argument :func:`repro.smt.solver.solve` takes, rejected
    with the same :class:`~repro.errors.ConfigurationError`); the
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
    # Capacity shares and hit fractions depend only on intrinsic
    # pressures, so setting up pins them for the whole iteration (the
    # scalar loop recomputes the same values every iteration).
    pk, profiles = _pack(machine, placements_list)

    line = float(machine.l3.line_bytes)
    peak = machine.dram_bytes_per_cycle
    beta = machine.bandwidth_beta
    bw_cap = machine.bandwidth_rho_cap

    n_problems = pk.n_problems
    active = np.ones(n_problems, dtype=bool)
    factor = np.ones(n_problems)
    dram_rho = np.zeros(n_problems)
    iterations = np.zeros(n_problems, dtype=np.int64)
    updates = counter("smt.batch.updates")
    waves = [_Wave(machine, pk, *table) for table in pk.waves]

    for iteration in range(1, max_iterations + 1):
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
        for wave in waves:
            updates.inc()
            wave.fold(max_delta, _slot_update(machine, pk, wave, dram_lat))
        converged = active & (max_delta < tolerance)
        if converged.any():
            # Converged problems drop out of every wave and its sibling
            # table; the survivors keep their flat order.
            iterations[converged] = iteration
            active &= ~converged
            for wave in waves:
                wave.flush(pk)
            waves = [live for wave in waves
                     if (live := wave.live(machine, pk, active)) is not None]
            if not waves:
                break
    if active.any():
        worst = float(max_delta[active].max())
        raise ConvergenceError(
            f"{int(active.sum())} of {n_problems} batched co-run solves did "
            f"not converge in {max_iterations} iterations "
            f"(worst delta {worst:.3e})"
        )

    bd = pk.breakdown
    # One row per context, in the column order ``SolvedBatch`` documents.
    values = np.column_stack((
        pk.ipc, bd["frontend"], bd["port"], bd["dependency"],
        bd["compute"], bd["contention"], bd["smt_overhead"], bd["memory"],
        pk.branch_cpi, pk.tlb_cpi, pk.icache_cpi,
        pk.h1, pk.h2, pk.h3, pk.hm, pk.capacities,
        np.minimum(1.0, pk.ipc * pk.port_demand).T,
    ))
    results = SolvedBatch(
        machine.name, profiles, pk.core, values, dram_rho, iterations,
        row_offsets(np.bincount(pk.prob)),
    )
    histogram("smt.batch.solve_seconds").record(time.perf_counter() - started)
    return results
