"""Property-based tests on simulator invariants over random workloads."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.smt.params import IVY_BRIDGE, SANDY_BRIDGE_EN
from repro.smt.simulator import Simulator
from repro.smt.solver import ContextPlacement
from repro.workloads.synthetic import random_profile

_SIM = Simulator(IVY_BRIDGE, jitter=0.0)

profile_seeds = st.integers(min_value=0, max_value=10_000)

_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


class TestSoloInvariants:
    @_settings
    @given(profile_seeds)
    def test_ipc_positive_and_bounded(self, seed):
        profile = random_profile(seed)
        result = _SIM.run_solo(profile)
        assert 0.0 < result.ipc <= IVY_BRIDGE.issue_width

    @_settings
    @given(profile_seeds)
    def test_port_utilization_bounded(self, seed):
        result = _SIM.run_solo(random_profile(seed))
        assert all(0.0 <= u <= 1.0 for u in result.port_utilization.values())

    @_settings
    @given(profile_seeds)
    def test_breakdown_matches_cpi(self, seed):
        # The damped fixed point leaves a small gap between the final
        # (averaged) IPC and the last breakdown evaluation.
        result = _SIM.run_solo(random_profile(seed))
        throttle = result.profile.throttle_cpi
        gap = abs(result.breakdown.total + throttle - result.cpi)
        assert gap < 1e-3 * result.cpi


class TestPairInvariants:
    @_settings
    @given(profile_seeds, profile_seeds)
    def test_smt_never_speeds_up(self, seed_a, seed_b):
        a, b = random_profile(seed_a), random_profile(seed_b + 20_000)
        pair = _SIM.run_pair(a, b, "smt")
        assert pair[0].ipc <= _SIM.run_solo(a).ipc + 1e-9
        assert pair[1].ipc <= _SIM.run_solo(b).ipc + 1e-9

    @_settings
    @given(profile_seeds, profile_seeds)
    def test_cmp_never_worse_than_smt(self, seed_a, seed_b):
        a, b = random_profile(seed_a), random_profile(seed_b + 20_000)
        smt = _SIM.run_pair(a, b, "smt")
        cmp_ = _SIM.run_pair(a, b, "cmp")
        assert cmp_[0].ipc >= smt[0].ipc - 1e-9

    @_settings
    @given(profile_seeds, profile_seeds)
    def test_symmetry_under_swap(self, seed_a, seed_b):
        # Port rebalancing updates contexts in listing order, so swapped
        # placements converge to the fixed point along different paths;
        # the residual asymmetry stays well under a percent.
        a, b = random_profile(seed_a), random_profile(seed_b + 20_000)
        ab = _SIM.run_pair(a, b, "smt")
        ba = _SIM.run_pair(b, a, "smt")
        assert abs(ab[0].ipc - ba[1].ipc) < 7.5e-3 * ab[0].ipc

    @_settings
    @given(profile_seeds)
    def test_hit_fractions_partition(self, seed):
        profile = random_profile(seed)
        result = _SIM.run_solo(profile)
        if profile.accesses_per_instruction > 0:
            total = (result.hits.l1 + result.hits.l2 + result.hits.l3
                     + result.hits.memory)
            assert abs(total - 1.0) < 1e-9


@st.composite
def relabeled_placements(draw):
    """A 2-12 context placement on SANDY_BRIDGE_EN and a relabeling of it.

    Profiles come from a pool of one to four, so SMT twins of one profile
    on one core are common. The relabeling permutes both the core labels
    and the context order.
    """
    machine = SANDY_BRIDGE_EN
    slots_per_core = machine.smt_contexts_per_core
    n_slots = machine.cores * slots_per_core
    pool = [random_profile(seed) for seed in draw(st.lists(
        profile_seeds, min_size=1, max_size=4, unique=True))]
    n = draw(st.integers(min_value=2, max_value=n_slots))
    slots = draw(st.permutations(range(n_slots)))[:n]
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n, max_size=n))
    original = [ContextPlacement(pool[k], core=slot // slots_per_core)
                for k, slot in zip(picks, slots)]
    cores = draw(st.permutations(range(machine.cores)))
    order = draw(st.permutations(range(n)))
    relabeled = [ContextPlacement(original[i].profile,
                                  core=cores[original[i].core])
                 for i in order]
    return original, relabeled


def _ipcs_by_profile(result):
    ipcs: dict[str, list[float]] = {}
    for context in result.contexts:
        ipcs.setdefault(context.profile.name, []).append(context.ipc)
    return {name: sorted(values) for name, values in ipcs.items()}


class TestRelabelingInvariance:
    @settings(max_examples=40, deadline=None)
    @given(relabeled_placements())
    def test_core_relabeling_keeps_per_profile_ipcs(self, placements):
        """Relabeling cores and reordering contexts changes no IPC.

        Per profile, the multiset of per-context IPCs is bitwise equal.
        It is not compared per context: SMT twins of one profile on one
        core may swap IPCs that differ by ~4e-9 (Gauss-Seidel order).
        The invariance holds at the ``Simulator`` level, which
        canonicalizes a placement before solving it; the raw scalar
        ``solve`` is not invariant, and relabeling moves its per-context
        IPCs by up to ~7e-4 relative. Each side gets a fresh simulator,
        so both really solve instead of sharing one memo entry.
        """
        original, relabeled = placements
        a = Simulator(SANDY_BRIDGE_EN, jitter=0.0).run(original)
        b = Simulator(SANDY_BRIDGE_EN, jitter=0.0).run(relabeled)
        assert _ipcs_by_profile(a) == _ipcs_by_profile(b)
