"""Tests for the Simulator facade: topologies, measurements, jitter."""

import random

import pytest

import repro.smt.simulator as simulator_module
from repro.errors import ConfigurationError
from repro.obs import snapshot
from repro.smt.params import SANDY_BRIDGE_EN
from repro.smt.pmu import PERFECT_PMU, read_pmu
from repro.smt.simulator import PairMeasurement, Simulator
from repro.smt.solver import ContextPlacement
from repro.workloads.spec import SPEC_CPU2006


def _counter(name: str) -> int:
    return snapshot()["counters"].get(name, 0)


def _requests() -> int:
    return _counter("smt.simulator.requests")


class TestTopologies:
    def test_run_solo(self, ivy_sim, mcf):
        result = ivy_sim.run_solo(mcf)
        assert result.name == "429.mcf"

    def test_run_pair_smt_same_core(self, ivy_sim, mcf, namd):
        result = ivy_sim.run_pair(mcf, namd, "smt")
        assert result[0].core == result[1].core == 0

    def test_run_pair_cmp_different_cores(self, ivy_sim, mcf, namd):
        result = ivy_sim.run_pair(mcf, namd, "cmp")
        assert result[0].core != result[1].core

    def test_bad_mode_rejected(self, ivy_sim, mcf, namd):
        with pytest.raises(ConfigurationError):
            ivy_sim.run_pair(mcf, namd, "hyper")  # type: ignore[arg-type]

    def test_server_smt_layout(self, snb_sim, mcf, cloud_apps):
        web = cloud_apps[0].profile
        result = snb_sim.run_server(web, mcf, instances=3, mode="smt")
        assert len(result.all_named(web.name)) == 6
        assert len(result.all_named(mcf.name)) == 3
        # batch instances share cores 0..2 with latency threads
        assert {c.core for c in result.all_named(mcf.name)} == {0, 1, 2}

    def test_server_cmp_layout(self, snb_sim, mcf, cloud_apps):
        web = cloud_apps[0].profile
        result = snb_sim.run_server(web, mcf, instances=2, mode="cmp")
        assert len(result.all_named(web.name)) == 3
        batch_cores = {c.core for c in result.all_named(mcf.name)}
        latency_cores = {c.core for c in result.all_named(web.name)}
        assert not batch_cores & latency_cores

    def test_server_instance_bounds(self, snb_sim, mcf, cloud_apps):
        web = cloud_apps[0].profile
        with pytest.raises(ConfigurationError):
            snb_sim.run_server(web, mcf, instances=7, mode="smt")
        with pytest.raises(ConfigurationError):
            snb_sim.run_server(web, mcf, instances=4, mode="cmp")


class TestMeasurements:
    def test_degradations_in_range(self, ivy_sim, mcf, lbm):
        m = ivy_sim.measure_pair(mcf, lbm, "smt")
        assert -0.05 < m.degradation_a < 1.0
        assert -0.05 < m.degradation_b < 1.0

    def test_measurements_repeatable(self, ivy_sim, mcf, namd):
        first = ivy_sim.measure_pair(mcf, namd, "smt")
        second = ivy_sim.measure_pair(mcf, namd, "smt")
        assert first == second

    def test_jitter_zero_matches_model(self, mcf):
        clean = Simulator(SANDY_BRIDGE_EN, jitter=0.0)
        solo = clean.run_solo(mcf)
        assert clean.measure_solo_ipc(mcf) == solo.ipc

    def test_jitter_bounded(self, mcf):
        jittered = Simulator(SANDY_BRIDGE_EN, jitter=0.05, seed=3)
        clean = Simulator(SANDY_BRIDGE_EN, jitter=0.0)
        ratio = jittered.measure_solo_ipc(mcf) / clean.measure_solo_ipc(mcf)
        assert 0.95 <= ratio <= 1.05

    def test_seed_changes_jitter(self, mcf):
        a = Simulator(SANDY_BRIDGE_EN, jitter=0.05, seed=1)
        b = Simulator(SANDY_BRIDGE_EN, jitter=0.05, seed=2)
        assert a.measure_solo_ipc(mcf) != b.measure_solo_ipc(mcf)

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulator(SANDY_BRIDGE_EN, jitter=0.7)

    def test_server_degradation_zero_instances(self, snb_sim, mcf, cloud_apps):
        web = cloud_apps[0].profile
        assert snb_sim.measure_server_degradation(
            web, mcf, instances=0, mode="smt") == 0.0

    def test_server_degradation_grows_with_instances(self, snb_sim, mcf,
                                                     cloud_apps):
        web = cloud_apps[0].profile
        degs = [snb_sim.measure_server_degradation(web, mcf, instances=k,
                                                   mode="smt")
                for k in (1, 3, 6)]
        assert degs[0] < degs[1] < degs[2]

    def test_measure_server_needs_instances(self, snb_sim, mcf, cloud_apps):
        with pytest.raises(ConfigurationError):
            snb_sim.measure_server(cloud_apps[0].profile, mcf, instances=0)


class TestCaching:
    def test_solves_memoized(self, mcf, namd):
        sim = Simulator(SANDY_BRIDGE_EN)
        sim.run_pair(mcf, namd)
        count = sim.solve_count
        sim.run_pair(mcf, namd)
        assert sim.solve_count == count

    def test_clear_cache(self, mcf):
        sim = Simulator(SANDY_BRIDGE_EN)
        sim.run_solo(mcf)
        sim.clear_cache()
        count = sim.solve_count
        sim.run_solo(mcf)
        assert sim.solve_count == count + 1

    def test_clear_cache_forgets_prefetch_marks(self, mcf, namd,
                                                 monkeypatch):
        sim = Simulator(SANDY_BRIDGE_EN)
        readings = [(mcf, namd, 2, "smt", None)]
        sim.prefetch_readings(servers=readings)
        sim.clear_cache()
        sim.prefetch_readings(servers=readings)
        solves = []
        monkeypatch.setattr(simulator_module, "solve_many",
                            lambda *args: solves.append(args))
        sim.measure_server(mcf, namd, instances=2)
        assert solves == []

    def test_clear_cache_forgets_measurements(self, mcf, lbm, cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile

        def readings():
            return (sim.measure_solo_ipc(mcf), sim.read_solo_pmu(lbm),
                    sim.measure_server(web, mcf, instances=2),
                    sim.measure_server(web, lbm, instances=3))

        before = _requests()
        first = readings()
        cold_requests = _requests() - before
        before = _requests()
        assert readings() == first
        assert _requests() == before  # all four are memoized
        sim.clear_cache()
        before = _requests()
        assert readings() == first
        # As many reads reach the solve cache as on a fresh simulator.
        assert _requests() - before == cold_requests


class TestPrefetchReadings:
    """Callers name readings; the simulator expands them to placements."""

    def test_readings_cover_every_measurement(self, mcf, namd, lbm,
                                              cloud_apps, monkeypatch):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        batches = []
        solve_many = simulator_module.solve_many

        def counting(machine, problems):
            batches.append(len(problems))
            return solve_many(machine, problems)

        monkeypatch.setattr(simulator_module, "solve_many", counting)
        sim.prefetch_readings(
            solos=[lbm], pairs=[(mcf, namd, "cmp")],
            servers=[(web, mcf, k, "smt", None) for k in (1, 3)],
        )
        sim.read_solo_pmu(lbm)
        sim.measure_pair(mcf, namd, "cmp")
        for k in (1, 3):
            sim.measure_server(web, mcf, instances=k)
        # lbm, mcf, namd solo; the cmp pair; the unloaded server and two
        # loaded ones: seven placements in one batch, and no later miss.
        assert batches == [7]

    def test_warmed_readings_are_skipped(self, mcf, namd, cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        readings = {"pairs": [(mcf, namd, "smt")],
                    "servers": [(web, namd, 2, "smt", None)]}
        sim.prefetch_readings(**readings)
        before = _requests()
        sim.prefetch_readings(**readings, solos=[mcf, namd])
        assert _requests() == before

    def test_a_server_without_batch_instances_reads_nothing(self, mcf,
                                                            cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        sim.prefetch_readings(
            servers=[(cloud_apps[0].profile, mcf, 0, "smt", None)])
        assert sim.solve_count == 0

    def test_an_invalid_reading_raises(self, mcf, cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        with pytest.raises(ConfigurationError):
            sim.prefetch_readings(
                servers=[(cloud_apps[0].profile, mcf, 7, "smt", None)])
        with pytest.raises(ConfigurationError):
            sim.prefetch_readings(pairs=[(mcf, mcf, "numa")])

    def test_canonicalizations_count_real_calls(self, mcf, namd,
                                                cloud_apps, monkeypatch):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        calls = []
        canonical = simulator_module._canonical_placements

        def counting(placements):
            calls.append(placements)
            return canonical(placements)

        monkeypatch.setattr(simulator_module, "_canonical_placements",
                            counting)
        before = _counter("smt.simulator.canonicalizations")
        jobs = [[ContextPlacement(mcf, core=0)],
                [ContextPlacement(mcf, core=0), ContextPlacement(namd, core=0)]]
        for _repeat in range(2):
            sim.prefetch(jobs)
            sim.prefetch_readings(servers=[(web, namd, 2, "smt", None)])
        sim.run_many(jobs)
        sim.measure_server(web, namd, instances=2)
        sim.measure_server(web, namd, instances=2)
        assert calls
        assert (_counter("smt.simulator.canonicalizations") - before
                == len(calls))


class TestSolvePathIndependence:
    """A result never depends on whether a prefetch solved its key first."""

    @pytest.mark.parametrize("topology", ["solo", "smt_pair", "server"])
    def test_run_miss_equals_prefetched_run(self, topology, mcf, namd,
                                            cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        placements = {
            "solo": [ContextPlacement(mcf, core=0)],
            "smt_pair": [ContextPlacement(mcf, core=0),
                         ContextPlacement(namd, core=0)],
            "server": sim.server_placements(
                cloud_apps[0].profile, mcf,
                instances=SANDY_BRIDGE_EN.cores),
        }[topology]
        direct = sim.run(placements)
        prefetched = Simulator(SANDY_BRIDGE_EN)
        prefetched.prefetch([placements])
        assert prefetched.run(placements) == direct


class TestServerPlacements:
    def test_repeat_call_returns_the_same_tuple(self, mcf, cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        first = sim.server_placements(web, mcf, instances=3)
        assert isinstance(first, tuple) and len(first) == 9
        assert sim.server_placements(web, mcf, instances=3) is first
        assert sim.server_placements(web, mcf, instances=2) != first
        cmp = sim.server_placements(web, mcf, instances=3, mode="cmp")
        assert [pl.core for pl in cmp] == list(range(6))

    @pytest.mark.parametrize("bad", [
        {"instances": 13}, {"mode": "numa"}, {"latency_threads": 0},
    ], ids=["instances", "mode", "latency_threads"])
    def test_an_invalid_call_raises_every_time(self, mcf, cloud_apps, bad):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        for _attempt in range(2):
            with pytest.raises(ConfigurationError):
                sim.server_placements(web, mcf, **{"instances": 1, **bad})


class TestMeasurementMemo:
    def test_repeat_is_one_lookup(self, mcf, cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        first = sim.measure_server(web, mcf, instances=3)
        before = _requests()
        second = sim.measure_server(web, mcf, instances=3)
        assert second is first
        assert sim.measure_server_degradation(
            web, mcf, instances=3) == first.degradation_a
        assert _requests() == before

    @pytest.mark.parametrize("variant", [
        {"instances": 2},
        {"mode": "cmp"},
        {"latency_threads": 3},
    ], ids=["instances", "mode", "latency_threads"])
    def test_each_argument_keys_its_own_entry(self, mcf, cloud_apps,
                                              variant):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        base = sim.measure_server(web, mcf, instances=1)
        before = _requests()
        varied = sim.measure_server(web, mcf, **{"instances": 1, **variant})
        assert _requests() > before
        assert varied != base
        fresh = Simulator(SANDY_BRIDGE_EN).measure_server(
            web, mcf, **{"instances": 1, **variant})
        assert varied == fresh

    def test_memoized_values_match_fresh_simulators(self, mcf, lbm,
                                                    cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        grid = [(app.profile, batch, k, mode)
                for app in cloud_apps[:2] for batch in (mcf, lbm)
                for mode, k in (("smt", 1), ("smt", 6), ("cmp", 3))]
        for _round in range(2):
            for latency, batch, k, mode in grid:
                memoized = sim.measure_server(latency, batch, instances=k,
                                              mode=mode)
                fresh = Simulator(SANDY_BRIDGE_EN).measure_server(
                    latency, batch, instances=k, mode=mode)
                assert memoized == fresh

    def test_errors_are_not_memoized(self, mcf, cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        for _attempt in range(2):
            with pytest.raises(ConfigurationError):
                sim.measure_server(web, mcf, instances=0)


# -- reference readings ------------------------------------------------
#
# The measurement formulas as they read before the measurement path
# went around ``run``: every reading is a reindexed ``run_*`` result,
# averaged with ``RunResult.all_named``. The memoized, reindex-free
# readings must equal them bit for bit.


def _bits(measurement: PairMeasurement) -> tuple[str, ...]:
    return (measurement.ipc_a.hex(), measurement.ipc_b.hex(),
            measurement.degradation_a.hex(), measurement.degradation_b.hex())


def _oracle_solo_ipc(sim, profile):
    return sim.run_solo(profile).ipc * sim._jitter_factor("solo", profile.name)


def _oracle_pair(sim, a, b, mode):
    result = sim.run_pair(a, b, mode)
    ipc_a = result[0].ipc * sim._jitter_factor(mode, a.name, b.name, "a")
    ipc_b = result[1].ipc * sim._jitter_factor(mode, a.name, b.name, "b")
    solo_a = _oracle_solo_ipc(sim, a)
    solo_b = _oracle_solo_ipc(sim, b)
    return PairMeasurement(ipc_a, ipc_b, (solo_a - ipc_a) / solo_a,
                           (solo_b - ipc_b) / solo_b)


def _oracle_server(sim, latency, batch, *, instances, mode,
                   latency_threads):
    def mean(threads):
        return sum(t.ipc for t in threads) / len(threads)

    solo = sim.run_server(latency, batch, instances=0, mode=mode,
                          latency_threads=latency_threads)
    loaded = sim.run_server(latency, batch, instances=instances, mode=mode,
                            latency_threads=latency_threads)
    solo_ipc = mean(solo.all_named(latency.name))
    loaded_ipc = mean(loaded.all_named(latency.name))
    loaded_ipc *= sim._jitter_factor(mode, latency.name, batch.name,
                                     f"server{instances}")
    batch_ipc = mean(loaded.all_named(batch.name))
    batch_ipc *= sim._jitter_factor(mode, latency.name, batch.name,
                                    f"server-batch{instances}")
    batch_solo = _oracle_solo_ipc(sim, batch)
    return PairMeasurement(loaded_ipc, batch_ipc,
                           (solo_ipc - loaded_ipc) / solo_ipc,
                           (batch_solo - batch_ipc) / batch_solo)


def _server_grid(cores):
    """(mode, latency_threads, max instances) for SMT and CMP servers."""
    return [("smt", None, cores), ("smt", cores - 2, cores - 2),
            ("cmp", None, cores - cores // 2), ("cmp", 2, cores - 2)]


class TestReadingParity:
    """Memoized, reindex-free readings equal the ``run_*`` formulas."""

    @pytest.mark.parametrize("swap", [False, True], ids=["AxB", "BxA"])
    def test_server_readings(self, swap, mcf, cloud_apps):
        latency, batch = cloud_apps[0].profile, mcf
        if swap:
            latency, batch = batch, latency
        measured = Simulator(SANDY_BRIDGE_EN)
        oracle = Simulator(SANDY_BRIDGE_EN)
        for mode, threads, top in _server_grid(SANDY_BRIDGE_EN.cores):
            for k in range(1, top + 1):
                args = dict(instances=k, mode=mode, latency_threads=threads)
                want = _oracle_server(oracle, latency, batch, **args)
                got = measured.measure_server(latency, batch, **args)
                assert _bits(got) == _bits(want), (mode, threads, k)
                assert measured.measure_server_degradation(
                    latency, batch, **args).hex() == \
                    want.degradation_a.hex()

    @pytest.mark.parametrize("swap", [False, True], ids=["AxB", "BxA"])
    def test_server_whose_canonical_cores_differ(self, swap, mcf,
                                                 cloud_apps):
        # mcf sorts before every CloudSuite app: as the latency app its
        # lone cores become canonical cores 0.., the shared cores move up.
        latency, batch = mcf, cloud_apps[1].profile
        if swap:
            latency, batch = batch, latency
        sim = Simulator(SANDY_BRIDGE_EN)
        placements = sim.server_placements(latency, batch, instances=2)
        canonical, order = simulator_module._canonical_placements(placements)
        assert order != sorted(order)
        relabeled = [pl.core for pl in canonical] != \
            [placements[i].core for i in order]
        assert relabeled != swap
        want = _oracle_server(Simulator(SANDY_BRIDGE_EN), latency, batch,
                              instances=2, mode="smt", latency_threads=None)
        got = sim.measure_server(latency, batch, instances=2)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("mode", ["smt", "cmp"])
    def test_pair_and_solo_readings(self, mode, mcf, lbm, namd):
        measured = Simulator(SANDY_BRIDGE_EN)
        oracle = Simulator(SANDY_BRIDGE_EN)
        for a, b in [(mcf, lbm), (lbm, mcf), (namd, namd)]:
            assert _bits(measured.measure_pair(a, b, mode)) == \
                _bits(_oracle_pair(oracle, a, b, mode))
        for profile in (mcf, lbm, namd):
            assert measured.measure_solo_ipc(profile).hex() == \
                _oracle_solo_ipc(oracle, profile).hex()
            assert measured.read_solo_pmu(profile) == read_pmu(
                oracle.run_solo(profile), oracle.pmu_defects)

    def test_canonical_order_matches_the_sorting_reference(self):
        def reference(placements):
            def key(i):
                return simulator_module._profile_sort_key(
                    placements[i].profile)

            by_core = {}
            for i, pl in enumerate(placements):
                by_core.setdefault(pl.core, []).append(i)
            groups = sorted(((tuple(key(i) for i in sorted(m, key=key)),
                              sorted(m, key=key))
                             for m in by_core.values()),
                            key=lambda g: g[0])
            order = [i for _key, members in groups for i in members]
            cores = [c for c, (_key, members) in enumerate(groups)
                     for _i in members]
            return [(placements[i].profile, c)
                    for i, c in zip(order, cores)], order

        profiles = list(dict(SPEC_CPU2006).values())[:4]
        rng = random.Random(7)
        for _trial in range(300):
            placements = [ContextPlacement(rng.choice(profiles),
                                           core=rng.randrange(5))
                          for _ in range(rng.randrange(1, 9))]
            canonical, order = simulator_module._canonical_placements(
                placements)
            want_pairs, want_order = reference(placements)
            assert order == want_order
            assert [(pl.profile, pl.core) for pl in canonical] == want_pairs


class TestReadingMemos:
    def test_unloaded_server_shared_across_batch_apps(self, mcf, lbm,
                                                      cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        sim.measure_solo_ipc(lbm)
        sim.measure_server(web, mcf, instances=2)
        before = _requests()
        sim.measure_server(web, lbm, instances=2)
        assert _requests() == before + 1  # the loaded server only

    def test_returned_pmu_reading_is_a_copy(self, mcf):
        sim = Simulator(SANDY_BRIDGE_EN)
        first = sim.read_solo_pmu(mcf)
        want = dict(first)
        first["instructions_per_cycle"] = -1.0
        first.clear()
        assert sim.read_solo_pmu(mcf) == want

    def test_replaced_pmu_defects_are_read(self, mcf):
        sim = Simulator(SANDY_BRIDGE_EN)
        default = sim.read_solo_pmu(mcf)
        sim.pmu_defects = PERFECT_PMU
        perfect = sim.read_solo_pmu(mcf)
        assert perfect != default
        assert perfect == Simulator(
            SANDY_BRIDGE_EN, pmu_defects=PERFECT_PMU).read_solo_pmu(mcf)
