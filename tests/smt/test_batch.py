"""Tests for the batch solver's set-up: statics, validation, capacity
shares and hit fractions, wave updates and the closed-form water-fill."""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.smt.batch as batch_module
import repro.smt.solver as solver
from repro.errors import ConfigurationError
from repro.obs import snapshot
from repro.smt.batch import _water_fill, solve_many
from repro.smt.params import IVY_BRIDGE, SANDY_BRIDGE_EN
from repro.smt.solver import ContextPlacement, solve
from repro.workloads.cloudsuite import CLOUDSUITE, cloudsuite_apps
from repro.workloads.spec import SPEC_CPU2006
from repro.workloads.synthetic import random_profile


def _problems(profiles):
    problems = [[ContextPlacement(p, core=0)] for p in profiles]
    for a, b in itertools.product(profiles, repeat=2):
        problems.append([ContextPlacement(a, core=0),
                         ContextPlacement(b, core=0)])
        problems.append([ContextPlacement(a, core=0),
                         ContextPlacement(b, core=1)])
    return problems


class TestProfileStatics:
    def test_computed_once_per_machine_and_profile(self, monkeypatch):
        counts = {"balance": 0, "pressures": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "_STATICS", weakref.WeakKeyDictionary())
        monkeypatch.setattr(solver, "balance_port_demand",
                            counting("balance", solver.balance_port_demand))
        monkeypatch.setattr(solver, "occupancy_pressures",
                            counting("pressures", solver.occupancy_pressures))
        profiles = list(SPEC_CPU2006.values())[:4]
        problems = _problems(profiles)
        for machine in (IVY_BRIDGE, SANDY_BRIDGE_EN):
            solve_many(machine, problems)
            solve_many(machine, problems[:5])
        assert counts == {"balance": 2 * len(profiles),
                          "pressures": 2 * len(profiles)}

    def test_same_name_different_values(self, monkeypatch, mcf):
        variant = mcf.replace(load=mcf.load * 0.5)
        assert variant.name == mcf.name and variant != mcf
        original, changed = solve_many(
            IVY_BRIDGE, [[ContextPlacement(mcf, core=0)],
                         [ContextPlacement(variant, core=0)]])
        assert changed[0].ipc != original[0].ipc
        assert changed[0].breakdown.memory != original[0].breakdown.memory

        # The variant matches a solve from an empty statics table, and
        # the scalar solver tells the two apart too.
        monkeypatch.setattr(solver, "_STATICS", weakref.WeakKeyDictionary())
        [fresh] = solve_many(IVY_BRIDGE, [[ContextPlacement(variant, core=0)]])
        assert fresh == changed
        scalar = [solve(IVY_BRIDGE, [ContextPlacement(p, core=0)])[0].ipc
                  for p in (mcf, variant)]
        assert scalar[0] != scalar[1]

    def test_entries_live_as_long_as_their_profile(self, mcf):
        variant = mcf.replace(load=mcf.load * 0.25)
        solve(IVY_BRIDGE, [ContextPlacement(variant, core=0)])
        solve_many(SANDY_BRIDGE_EN, [[ContextPlacement(variant, core=0)]])
        assert set(solver._STATICS[variant]) == {IVY_BRIDGE, SANDY_BRIDGE_EN}
        alive = weakref.ref(variant)
        del variant
        gc.collect()
        assert alive() is None
        assert mcf.replace(load=mcf.load * 0.25) not in solver._STATICS


def _updates() -> int:
    return snapshot()["counters"].get("smt.batch.updates", 0)


class TestWaveUpdates:
    def test_one_update_per_within_core_rank_per_iteration(self):
        # A full Sandy Bridge-EN server has 12 contexts but only two
        # within-core ranks, so each iteration makes two wave updates.
        mcf, namd = SPEC_CPU2006["429.mcf"], SPEC_CPU2006["444.namd"]
        cores = SANDY_BRIDGE_EN.cores
        server = ([ContextPlacement(mcf, core=i) for i in range(cores)]
                  + [ContextPlacement(namd, core=i) for i in range(cores)])
        for placements, waves in ((server, 2), (server[:cores], 1)):
            before = _updates()
            [result] = solve_many(SANDY_BRIDGE_EN, [placements])
            assert _updates() - before == waves * result.iterations


def _water_fill_rows(levels, amount):
    """The general sort-based water-fill: the closed forms' oracle.

    ``levels`` is (m, k); ``amount`` is (m,). The water level ``W``
    satisfies ``sum_i max(0, W - l_i) == amount`` with ``W = (amount +
    sum of the t* lowest levels) / t*``, where ``t*`` is the largest bin
    count whose candidate level stays above its highest member.
    """
    k = levels.shape[1]
    sorted_levels = np.sort(levels, axis=1)
    csum = np.cumsum(sorted_levels, axis=1)
    counts = np.arange(1, k + 1, dtype=float)
    candidates = (amount[:, None] + csum) / counts
    valid = candidates >= sorted_levels
    t_star = valid.sum(axis=1) - 1  # index of the last valid count
    water = candidates[np.arange(t_star.size), t_star]
    return np.maximum(0.0, water[:, None] - levels)


# Few distinct values, so rows tie often; zeros included.
_levels = st.one_of(st.sampled_from((0.0, 0.25, 0.5, 1.0, 3.0)),
                    st.floats(min_value=0.0, max_value=4.0))


class TestWaterFill:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=3).flatmap(
        lambda k: st.lists(st.tuples(st.tuples(*[_levels] * k), _levels),
                           min_size=1, max_size=12)))
    def test_closed_forms_are_the_sort_based_fill(self, rows):
        levels = np.array([row for row, _amount in rows])
        amount = np.array([a for _row, a in rows])
        got = np.column_stack(_water_fill(list(levels.T), amount))
        want = _water_fill_rows(levels, amount)
        assert got.tobytes() == want.tobytes()

    def test_pours_the_whole_amount(self):
        levels = np.array([[0.0, 1.0, 3.0], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
        amount = np.array([2.0, 0.3, 0.0])
        filled = np.column_stack(_water_fill(list(levels.T), amount))
        assert filled.sum(axis=1).tolist() == pytest.approx(amount.tolist())
        assert filled[0].tolist() == [1.5, 0.5, 0.0]


def _bad_problems(machine, p):
    cores, slots = machine.cores, machine.smt_contexts_per_core
    return {
        "empty": [],
        "no such core": [ContextPlacement(p, core=0),
                         ContextPlacement(p, core=cores)],
        "too many contexts": [ContextPlacement(p, core=1)] * (slots + 1),
        "overfull before a missing core": (
            [ContextPlacement(p, core=0)] * (slots + 1)
            + [ContextPlacement(p, core=cores + 3)]),
    }


class TestValidation:
    @pytest.mark.parametrize("machine", [IVY_BRIDGE, SANDY_BRIDGE_EN],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("case", list(_bad_problems(IVY_BRIDGE, None)))
    def test_rejects_what_solve_rejects(self, machine, case, mcf, namd):
        bad = _bad_problems(machine, mcf)[case]
        good = [ContextPlacement(mcf, core=0), ContextPlacement(namd, core=0)]
        with pytest.raises(ConfigurationError) as scalar:
            solve(machine, bad)
        for problems in ([bad], [good, bad, good[:1]],
                         [good, bad, _bad_problems(machine, namd)["empty"]]):
            with pytest.raises(ConfigurationError) as batched:
                solve_many(machine, problems)
            assert str(batched.value) == str(scalar.value)

    def test_first_bad_problem_names_the_error(self, mcf):
        cases = _bad_problems(IVY_BRIDGE, mcf)
        with pytest.raises(ConfigurationError) as scalar:
            solve(IVY_BRIDGE, cases["too many contexts"])
        with pytest.raises(ConfigurationError) as batched:
            solve_many(IVY_BRIDGE, [cases["too many contexts"],
                                    cases["no such core"]])
        assert str(batched.value) == str(scalar.value)


def _pool(seeds):
    """Profiles for set-up parity: random, SPEC, and CloudSuite latency
    apps (``shares_memory``), plus same-name variants of one of each."""
    mcf = SPEC_CPU2006["429.mcf"]
    web, data = (app.profile for app in cloudsuite_apps()[:2])
    return [random_profile(seeds[0]), random_profile(seeds[1]), mcf,
            mcf.replace(load=mcf.load * 0.5), web, data,
            web.replace(mlp=web.mlp * 1.5)]


@st.composite
def _setup_problem(draw, machine):
    pool = _pool(draw(st.tuples(st.integers(0, 10_000),
                                st.integers(20_000, 30_000))))
    pick = st.sampled_from(pool)
    cores = machine.cores
    kind = draw(st.sampled_from(("solo", "smt", "cmp", "smt_server",
                                 "cmp_server", "any")))
    if kind == "solo":
        return [ContextPlacement(draw(pick), core=0)]
    if kind in ("smt", "cmp"):
        return [ContextPlacement(draw(pick), core=0),
                ContextPlacement(draw(pick), core=int(kind == "cmp"))]
    if kind == "any":  # any layout, at most one context per SMT slot
        slots = draw(st.lists(st.sampled_from(range(cores)), min_size=1,
                              max_size=cores * machine.smt_contexts_per_core)
                     .filter(lambda cs: max(map(cs.count, cs))
                             <= machine.smt_contexts_per_core))
        return [ContextPlacement(draw(pick), core=c) for c in slots]
    latency, batch = draw(pick), draw(pick)
    threads = draw(st.integers(1, cores if kind == "smt_server"
                               else cores - 1))
    room = threads if kind == "smt_server" else cores - threads
    first = 0 if kind == "smt_server" else threads
    return ([ContextPlacement(latency, core=i) for i in range(threads)]
            + [ContextPlacement(batch, core=first + i)
               for i in range(draw(st.integers(0, room)))])


@st.composite
def _setup_batch(draw):
    machine = draw(st.sampled_from((IVY_BRIDGE, SANDY_BRIDGE_EN)))
    return machine, draw(st.lists(_setup_problem(machine), min_size=1,
                                  max_size=6))


class TestSetupParity:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(_setup_batch())
    def test_capacities_and_hits_are_the_scalar_setup(self, batch):
        machine, problems = batch
        pk, profiles = batch_module._pack(machine, problems)
        assert profiles == tuple(pl.profile for pls in problems for pl in pls)
        states = []
        for placements in problems:
            prepared = solver._prepare(machine, placements)
            solver._update_capacities(machine, prepared, {})
            states += prepared
        capacities = np.array([s.capacities for s in states])
        hits = np.array([(s.hits.l1, s.hits.l2, s.hits.l3, s.hits.memory)
                         for s in states])
        assert pk.capacities.tobytes() == capacities.tobytes()
        assert (np.column_stack((pk.h1, pk.h2, pk.h3, pk.hm)).tobytes()
                == hits.tobytes())

    def test_shared_entities_add_in_first_member_order(self):
        # A group's total adds its plain contexts, then each shared
        # entity by its first member: data-serving before web-search in
        # the second problem, though the batch met web-search first.
        # The two orders round differently for these pressures.
        web = CLOUDSUITE["web-search"].profile
        serving = CLOUDSUITE["data-serving"].profile
        bwaves = SPEC_CPU2006["410.bwaves"]
        l3 = [batch_module._statics(SANDY_BRIDGE_EN, p).pressures[2]
              for p in (bwaves, serving, web)]
        assert (l3[0] + l3[1]) + l3[2] != (l3[0] + l3[2]) + l3[1]
        problems = [[ContextPlacement(web, core=0),
                     ContextPlacement(serving, core=1)],
                    [ContextPlacement(bwaves, core=0),
                     ContextPlacement(serving, core=1),
                     ContextPlacement(web, core=2)]]
        pk, _profiles = batch_module._pack(SANDY_BRIDGE_EN, problems)
        states = solver._prepare(SANDY_BRIDGE_EN, problems[1])
        solver._update_capacities(SANDY_BRIDGE_EN, states, {})
        assert (pk.capacities[2:].tobytes()
                == np.array([s.capacities for s in states]).tobytes())

    def test_a_shared_entity_is_split_as_one(self):
        # Six web-search threads are one cache entity at the L3: with a
        # streaming batch app they split the L3 two ways, not seven.
        web = cloudsuite_apps()[0].profile
        lbm = SPEC_CPU2006["470.lbm"]
        cores = SANDY_BRIDGE_EN.cores
        placements = ([ContextPlacement(web, core=i) for i in range(cores)]
                      + [ContextPlacement(lbm, core=0)])
        pk, _profiles = batch_module._pack(SANDY_BRIDGE_EN, [placements])
        l3 = pk.capacities[:, 2]
        assert len(set(l3[:cores].tolist())) == 1
        assert l3[0] + l3[-1] == pytest.approx(
            SANDY_BRIDGE_EN.l3.size_bytes, rel=0.05)
