"""Tests for the batch solver's per-profile statics."""

import gc
import itertools
import weakref

import repro.smt.solver as solver
from repro.obs import snapshot
from repro.smt.batch import solve_many
from repro.smt.params import IVY_BRIDGE, SANDY_BRIDGE_EN
from repro.smt.solver import ContextPlacement, solve
from repro.workloads.spec import SPEC_CPU2006


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
