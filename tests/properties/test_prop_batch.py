"""Property: the vectorized batch solver is the scalar solver.

``solve_many`` must reproduce ``solve`` context for context — same IPCs,
same stall breakdowns, same iteration counts — on every topology the
pipeline uses. The implementation mirrors the scalar Gauss-Seidel update
order exactly, so agreement is at float precision; the assertions allow
1e-6 relative (the acceptance bar) with lots of headroom.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


_composed_problems = st.lists(
    st.tuples(st.sampled_from(("solo", "smt", "cmp", "server")),
              profile_seeds, profile_seeds,
              st.integers(min_value=1, max_value=SANDY_BRIDGE_EN.cores)),
    min_size=2, max_size=6,
)


class TestBatchComposition:
    @_settings
    @given(_composed_problems)
    def test_in_batch_result_is_the_solo_batch_result(self, drawn):
        # A problem's result must not depend on what else is in the
        # batch: its siblings' sums, its convergence, and the other
        # problems freezing at different iterations are all its own.
        problems = [_composed_problem(*spec) for spec in drawn]
        together = solve_many(SANDY_BRIDGE_EN, problems)
        for placements, result in zip(problems, together):
            assert result == solve_many(SANDY_BRIDGE_EN, [placements])[0]
