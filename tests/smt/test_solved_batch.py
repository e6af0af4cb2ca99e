"""Solved batches build the same result objects the solver used to.

``solve_many`` keeps its results as columns and builds a
:class:`RunResult` only when asked. The oracle below is the loop that
used to build every result object at the end of ``solve_many``, run on
the same solved kernel state; every materialized result must equal it
in value and in ``repr`` (so in field types too: an int stays an int),
straight from the batch and after a disk-cache round trip.
"""

import tempfile
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.smt.batch as batch_module
from repro.isa.opcodes import ALL_PORTS
from repro.smt.batch import solve_many
from repro.smt.diskcache import PersistentSolveCache
from repro.smt.params import IVY_BRIDGE, SANDY_BRIDGE_EN
from repro.smt.results import (ContextResult, CpiBreakdown, RunResult,
                                SolvedBatch)
from repro.smt.solver import (ContextPlacement, _prepare,
                              _update_capacities)
from repro.workloads.synthetic import random_profile

_settings = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _oracle_solve_many(machine, problems):
    """``solve_many`` with its former object-building loop.

    The kernel's final state (the packed arrays) is captured from the
    real run; the results are then built exactly as ``solve_many`` built
    them before it returned columns, with each context's hit fractions
    and capacities from the scalar set-up (``_prepare`` plus
    ``_update_capacities``), not from the batch.
    """
    captured = []

    class _Recording(batch_module._Packed):
        def __init__(self, machine, *arrays):
            super().__init__(machine, *arrays)
            captured.append(self)

    with mock.patch.object(batch_module, "_Packed", _Recording):
        solved = solve_many(machine, problems)
    (pk,) = captured
    states_list = []
    for placements in problems:
        states = _prepare(machine, placements)
        _update_capacities(machine, states, {})
        states_list.append(states)

    ipc = pk.ipc.tolist()
    utilization = np.minimum(1.0, pk.ipc[:, None] * pk.port_demand.T).tolist()
    bd = pk.breakdown
    breakdowns = list(zip(
        bd["frontend"].tolist(), bd["port"].tolist(),
        bd["dependency"].tolist(), bd["compute"].tolist(),
        bd["contention"].tolist(), bd["smt_overhead"].tolist(),
        bd["memory"].tolist(), pk.branch_cpi.tolist(), pk.tlb_cpi.tolist(),
        pk.icache_cpi.tolist(),
    ))
    results = []
    g = 0
    for states, dram, its in zip(states_list,
                                 solved.dram_utilization.tolist(),
                                 solved.iterations.tolist()):
        contexts = []
        for state in states:
            contexts.append(ContextResult(
                profile=state.profile,
                core=state.placement.core,
                ipc=ipc[g],
                breakdown=CpiBreakdown(*breakdowns[g]),
                hits=state.hits,
                port_utilization=dict(zip(ALL_PORTS, utilization[g])),
                effective_capacities=state.capacities,
            ))
            g += 1
        results.append(RunResult(
            machine_name=machine.name,
            contexts=tuple(contexts),
            dram_utilization=dram,
            iterations=its,
        ))
    return solved, results


def _problem(machine, kind, seeds, instances):
    a, b = (random_profile(seed) for seed in seeds)
    if kind == "solo":
        return [ContextPlacement(a, core=0)]
    if kind == "smt":
        return [ContextPlacement(a, core=0), ContextPlacement(b, core=0)]
    if kind == "cmp":
        return [ContextPlacement(a, core=0), ContextPlacement(b, core=1)]
    if kind == "cmp_server":
        half = machine.cores // 2
        return ([ContextPlacement(a, core=i) for i in range(half)]
                + [ContextPlacement(b, core=half + i)
                   for i in range(min(instances, machine.cores - half))])
    return ([ContextPlacement(a, core=i) for i in range(machine.cores)]
            + [ContextPlacement(b, core=i)
               for i in range(min(instances, machine.cores))])


_machines = st.sampled_from((IVY_BRIDGE, SANDY_BRIDGE_EN))
_specs = st.lists(
    st.tuples(st.sampled_from(("solo", "smt", "cmp", "cmp_server",
                               "smt_server")),
              st.tuples(st.integers(0, 10_000), st.integers(20_000, 30_000)),
              st.integers(0, 6)),
    min_size=1, max_size=6)


def _assert_same(got, want):
    assert repr(got) == repr(want)
    assert got == want


class TestMaterializedResults:
    @_settings
    @given(_machines, _specs)
    def test_batch_items_equal_the_object_loop(self, machine, specs):
        problems = [_problem(machine, *spec) for spec in specs]
        solved, oracle = _oracle_solve_many(machine, problems)
        assert len(solved) == len(oracle)
        for got, want in zip(solved, oracle):
            _assert_same(got, want)
        assert solved[-1] == oracle[-1]
        assert SolvedBatch.from_results(oracle) == solved

    @_settings
    @given(_machines, _specs)
    def test_disk_round_trip_equals_the_object_loop(self, machine, specs):
        problems = [_problem(machine, *spec) for spec in specs]
        solved, oracle = _oracle_solve_many(machine, problems)
        keys = [f"{i:064x}" for i in range(len(problems))]
        with tempfile.TemporaryDirectory() as root:
            PersistentSolveCache(root).put(
                {key: solved.problem(i) for i, key in enumerate(keys)})
            fresh = PersistentSolveCache(root)
            for key, placements, want in zip(keys, problems, oracle):
                stored = fresh.get(key)
                got = stored.result([pl.profile for pl in placements])
                _assert_same(got, want)


class TestBatchSequence:
    def test_empty_batch(self):
        solved = solve_many(IVY_BRIDGE, [])
        assert len(solved) == 0
        assert list(solved) == []

    def test_handles_read_ipcs_without_building_results(self, mcf, namd):
        placements = [ContextPlacement(mcf, core=0),
                      ContextPlacement(namd, core=0)]
        solved = solve_many(IVY_BRIDGE, [[placements[0]], placements])
        pair = solved.problem(-1)
        assert pair.ipcs() == [ctx.ipc for ctx in solved[1].contexts]
        assert pair.iterations == solved[1].iterations
        assert solved.problem(0) != pair
