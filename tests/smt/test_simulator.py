"""Tests for the Simulator facade: topologies, measurements, jitter."""

import pytest

import repro.smt.simulator as simulator_module
from repro.errors import ConfigurationError
from repro.obs import snapshot
from repro.smt.params import SANDY_BRIDGE_EN
from repro.smt.simulator import Simulator
from repro.smt.solver import ContextPlacement
from repro.workloads.spec import SPEC_CPU2006


def _requests() -> int:
    return snapshot()["counters"].get("smt.simulator.requests", 0)


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
        jobs = [sim.server_placements(mcf, namd, instances=k)
                for k in (0, 2)]
        sim.prefetch(jobs)
        sim.clear_cache()
        sim.prefetch(jobs)
        solves = []
        monkeypatch.setattr(simulator_module, "solve_many",
                            lambda *args: solves.append(args))
        for placements in jobs:
            sim.run(placements)
        assert solves == []

    def test_clear_cache_forgets_measurements(self, mcf, cloud_apps):
        sim = Simulator(SANDY_BRIDGE_EN)
        web = cloud_apps[0].profile
        first = sim.measure_server(web, mcf, instances=2)
        sim.clear_cache()
        before = _requests()
        again = sim.measure_server(web, mcf, instances=2)
        assert _requests() > before
        assert again == first


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
