"""Property: the vectorized batch solver is the scalar solver.

``solve_many`` must reproduce ``solve`` context for context — same IPCs,
same stall breakdowns, same iteration counts — on every topology the
pipeline uses. The implementation mirrors the scalar Gauss-Seidel update
order exactly, so agreement is at float precision; the assertions allow
1e-6 relative (the acceptance bar) with lots of headroom.

Within an iteration the batch solver sweeps *waves* (each context's rank
on its own core) rather than placement slots; that reorders updates only
across cores, so it must be bitwise the one-slot-at-a-time sweep.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.smt.batch as batch_module
from repro.smt.batch import solve_many
from repro.smt.params import IVY_BRIDGE, SANDY_BRIDGE_EN
from repro.smt.solver import ContextPlacement, solve
from repro.workloads.synthetic import random_profile

profile_seeds = st.integers(min_value=0, max_value=10_000)

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)

_BREAKDOWN_FIELDS = ("compute", "contention", "smt_overhead", "memory",
                     "branch", "tlb", "icache")


def _assert_matches(batch_result, scalar_result, rel=1e-6):
    assert len(batch_result.contexts) == len(scalar_result.contexts)
    assert batch_result.iterations == scalar_result.iterations
    for got, want in zip(batch_result.contexts, scalar_result.contexts):
        assert got.profile == want.profile
        assert got.core == want.core
        assert abs(got.ipc - want.ipc) <= rel * want.ipc
        for field in _BREAKDOWN_FIELDS:
            got_v = getattr(got.breakdown, field)
            want_v = getattr(want.breakdown, field)
            assert abs(got_v - want_v) <= rel * max(1.0, abs(want_v))


class TestBatchMatchesScalar:
    @_settings
    @given(profile_seeds)
    def test_solo(self, seed):
        placements = [ContextPlacement(random_profile(seed), core=0)]
        [batch] = solve_many(IVY_BRIDGE, [placements])
        _assert_matches(batch, solve(IVY_BRIDGE, placements))

    @_settings
    @given(profile_seeds, profile_seeds)
    def test_smt_pair(self, seed_a, seed_b):
        placements = [
            ContextPlacement(random_profile(seed_a), core=0),
            ContextPlacement(random_profile(seed_b + 20_000), core=0),
        ]
        [batch] = solve_many(IVY_BRIDGE, [placements])
        _assert_matches(batch, solve(IVY_BRIDGE, placements))

    @_settings
    @given(profile_seeds, profile_seeds)
    def test_cmp_pair(self, seed_a, seed_b):
        placements = [
            ContextPlacement(random_profile(seed_a), core=0),
            ContextPlacement(random_profile(seed_b + 20_000), core=1),
        ]
        [batch] = solve_many(IVY_BRIDGE, [placements])
        _assert_matches(batch, solve(IVY_BRIDGE, placements))

    @_settings
    @given(profile_seeds, profile_seeds)
    def test_full_server(self, seed_lat, seed_batch):
        # The 12-context Sandy Bridge-EN server topology: one latency
        # thread per core plus batch instances on every sibling slot.
        latency = random_profile(seed_lat)
        batch_app = random_profile(seed_batch + 20_000)
        cores = SANDY_BRIDGE_EN.cores
        placements = (
            [ContextPlacement(latency, core=i) for i in range(cores)]
            + [ContextPlacement(batch_app, core=i) for i in range(cores)]
        )
        [batch] = solve_many(SANDY_BRIDGE_EN, [placements])
        _assert_matches(batch, solve(SANDY_BRIDGE_EN, placements))

    @_settings
    @given(st.lists(profile_seeds, min_size=2, max_size=6, unique=True))
    def test_mixed_batch(self, seeds):
        # Heterogeneous problem sizes stacked into one batch: solos,
        # SMT pairs, and a partial server, solved together.
        profiles = [random_profile(s) for s in seeds]
        problems = [[ContextPlacement(p, core=0)] for p in profiles]
        problems += [
            [ContextPlacement(a, core=0), ContextPlacement(b, core=0)]
            for a, b in zip(profiles, profiles[1:])
        ]
        problems.append([
            ContextPlacement(p, core=i % IVY_BRIDGE.cores)
            for i, p in enumerate(profiles)
        ])
        batches = solve_many(IVY_BRIDGE, problems)
        for placements, batch in zip(problems, batches):
            _assert_matches(batch, solve(IVY_BRIDGE, placements))


def _composed_problem(kind, seed_a, seed_b, instances):
    machine = SANDY_BRIDGE_EN
    a = random_profile(seed_a)
    b = random_profile(seed_b + 20_000)
    if kind == "solo":
        return [ContextPlacement(a, core=0)]
    if kind == "smt":
        return [ContextPlacement(a, core=0), ContextPlacement(b, core=0)]
    if kind == "cmp":
        return [ContextPlacement(a, core=0), ContextPlacement(b, core=1)]
    # The server topology: a latency thread per core, batch instances on
    # the first cores' sibling slots (12 contexts at full complement).
    return ([ContextPlacement(a, core=i) for i in range(machine.cores)]
            + [ContextPlacement(b, core=i) for i in range(instances)])


@st.composite
def _shuffled_placement(draw):
    """1-12 ``SANDY_BRIDGE_EN`` contexts, at most 2 per core, any order.

    Core labels are whichever cores drew contexts, so they are rarely
    dense; profiles come from a small pool so some contexts share one.
    """
    machine = SANDY_BRIDGE_EN
    per_core = draw(st.lists(
        st.integers(min_value=0, max_value=machine.smt_contexts_per_core),
        min_size=machine.cores, max_size=machine.cores).filter(any))
    cores = draw(st.permutations(
        [core for core, n in enumerate(per_core) for _ in range(n)]))
    pool = draw(st.lists(profile_seeds, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1),
                          min_size=len(cores), max_size=len(cores)))
    return [ContextPlacement(random_profile(pool[i]), core=core)
            for i, core in zip(picks, cores)]


_problems = st.one_of(
    st.tuples(st.sampled_from(("solo", "smt", "cmp", "server")),
              profile_seeds, profile_seeds,
              st.integers(min_value=1, max_value=SANDY_BRIDGE_EN.cores),
              ).map(lambda spec: _composed_problem(*spec)),
    _shuffled_placement(),
)


class TestBatchComposition:
    @_settings
    @given(st.lists(_problems, min_size=2, max_size=6))
    def test_in_batch_result_is_the_solo_batch_result(self, problems):
        # A problem's result must not depend on what else is in the
        # batch: its siblings' sums, its convergence, and the other
        # problems freezing at different iterations are all its own.
        together = solve_many(SANDY_BRIDGE_EN, problems)
        for placements, result in zip(problems, together):
            assert result == solve_many(SANDY_BRIDGE_EN, [placements])[0]


class _SlotOrderPacked(batch_module._Packed):
    """``_Packed`` with one update table per placement slot.

    The placement-order oracle: slot ``k`` updates every problem's
    ``k``-th context, the sweep order of the scalar solver. The tables
    have the wave tables' layout, so ``solve_many`` runs them through
    the same ``_slot_update``.
    """

    def __init__(self, machine, prob, core, *columns):
        super().__init__(machine, prob, core, *columns)
        counts = np.bincount(prob)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        _keys, core_gid = np.unique(self.prob * machine.cores + core,
                                    return_inverse=True)
        local = np.full(core_gid.max() + 1, -1, dtype=np.intp)
        self.waves = []
        for slot in range(int(counts.max())):
            idx = (offsets[:-1] + slot)[counts > slot]
            local[core_gid[idx]] = np.arange(idx.size)
            loc_all = local[core_gid]
            sib = np.flatnonzero(loc_all >= 0)
            self.waves.append((idx, self.prob[idx], sib, loc_all[sib]))
            local[core_gid[idx]] = -1


def _placement_order_solve(machine, problems):
    with mock.patch.object(batch_module, "_Packed", _SlotOrderPacked):
        return solve_many(machine, problems)


class TestWaveSweep:
    @_settings
    @given(st.lists(_problems, min_size=1, max_size=4))
    def test_waves_are_the_placement_order_sweep(self, problems):
        assert (solve_many(SANDY_BRIDGE_EN, problems)
                == _placement_order_solve(SANDY_BRIDGE_EN, problems))
