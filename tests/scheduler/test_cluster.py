"""Tests for the cluster model and metrics."""

import pytest

from repro.errors import SchedulingError
from repro.obs import snapshot
from repro.scheduler.cluster import Cluster, ServerState
from repro.scheduler.metrics import violation_stats
from repro.scheduler.policies import (
    NoColocationPolicy,
    OraclePolicy,
    RandomPolicy,
)
from repro.scheduler.qos import QosTarget
from repro.scheduler.scaleout import random_counts_for_gain
from repro.smt.params import SANDY_BRIDGE_EN
from repro.smt.simulator import Simulator
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even


@pytest.fixture(scope="module")
def small_cluster():
    simulator = Simulator(SANDY_BRIDGE_EN)
    return Cluster.build(
        simulator, cloudsuite_apps(), spec_even()[:5],
        servers_per_app=10, seed=7,
    )


class TestBuild:
    def test_server_count(self, small_cluster):
        assert len(small_cluster.servers) == 40  # 4 apps x 10

    def test_each_app_gets_equal_share(self, small_cluster):
        by_app = {}
        for server in small_cluster.servers:
            by_app.setdefault(server.latency_app.name, 0)
            by_app[server.latency_app.name] += 1
        assert set(by_app.values()) == {10}

    def test_batch_candidates_from_pool(self, small_cluster):
        pool = {p.name for p in spec_even()[:5]}
        assert all(s.batch_candidate.name in pool
                   for s in small_cluster.servers)

    def test_deterministic_for_seed(self):
        simulator = Simulator(SANDY_BRIDGE_EN)
        a = Cluster.build(simulator, cloudsuite_apps(), spec_even()[:5],
                          servers_per_app=5, seed=1)
        b = Cluster.build(simulator, cloudsuite_apps(), spec_even()[:5],
                          servers_per_app=5, seed=1)
        assert [s.batch_candidate.name for s in a.servers] == \
            [s.batch_candidate.name for s in b.servers]

    def test_empty_inputs_rejected(self):
        simulator = Simulator(SANDY_BRIDGE_EN)
        with pytest.raises(SchedulingError):
            Cluster.build(simulator, [], spec_even())
        with pytest.raises(SchedulingError):
            Cluster.build(simulator, cloudsuite_apps(), [])


class TestUtilization:
    def test_baseline_half_utilized(self, small_cluster):
        small_cluster.reset()
        assert small_cluster.utilization() == pytest.approx(0.5)
        assert small_cluster.utilization_improvement() == 0.0

    def test_no_colocation_policy_keeps_baseline(self, small_cluster):
        small_cluster.apply_policy(NoColocationPolicy(),
                                   QosTarget.average(0.9))
        assert small_cluster.total_instances == 0
        assert small_cluster.utilization_improvement() == 0.0

    def test_full_colocation_reaches_full_utilization(self, small_cluster):
        counts = {i: 6 for i in range(len(small_cluster.servers))}
        small_cluster.reset()
        small_cluster.apply_policy(RandomPolicy(counts),
                                   QosTarget.average(0.5))
        assert small_cluster.utilization() == pytest.approx(1.0)
        assert small_cluster.utilization_improvement() == pytest.approx(1.0)
        # actual degradations recorded for every co-located server
        assert all(s.actual_degradation > 0
                   for s in small_cluster.servers if s.is_colocated)
        small_cluster.reset()


class TestViolationStats:
    def test_counts_and_magnitudes(self, small_cluster):
        counts = {i: 6 for i in range(len(small_cluster.servers))}
        small_cluster.reset()
        small_cluster.apply_policy(RandomPolicy(counts),
                                   QosTarget.average(0.98))
        stats = violation_stats(small_cluster, QosTarget.average(0.98))
        assert stats.colocated_servers == 40
        assert stats.violated_servers > 0  # 2% budget, 6 instances: carnage
        assert 0 < stats.rate <= 1.0
        assert stats.worst_magnitude >= stats.mean_magnitude > 0.0
        small_cluster.reset()

    def test_no_colocations_no_violations(self, small_cluster):
        small_cluster.reset()
        stats = violation_stats(small_cluster, QosTarget.average(0.9))
        assert stats.rate == 0.0
        assert stats.colocated_servers == 0


class TestRandomCountsForGain:
    def test_exact_total(self):
        counts = random_counts_for_gain(100, 50, 6, seed=1)
        assert sum(counts.values()) == 100

    def test_respects_per_server_cap(self):
        counts = random_counts_for_gain(290, 50, 6, seed=2)
        assert max(counts.values()) <= 6

    def test_infeasible_rejected(self):
        with pytest.raises(SchedulingError):
            random_counts_for_gain(1000, 10, 6)

    def test_deterministic(self):
        assert random_counts_for_gain(30, 20, 6, seed=3) == \
            random_counts_for_gain(30, 20, 6, seed=3)


class TestOracleRequests:
    @staticmethod
    def _oracle_run(copies: int) -> tuple[int, list[int]]:
        """Simulator requests and decisions of an oracle pass over a fleet
        that repeats the same (app, candidate) servers ``copies`` times."""
        simulator = Simulator(SANDY_BRIDGE_EN)
        combos = [(app, batch) for app in cloudsuite_apps()[:2]
                  for batch in spec_even()[:3]]
        servers = [ServerState(index=i, latency_app=app, batch_candidate=b)
                   for i, (app, b) in enumerate(combos * copies)]
        cluster = Cluster(simulator=simulator, servers=servers)
        before = snapshot()["counters"].get("smt.simulator.requests", 0)
        cluster.apply_policy(OraclePolicy(simulator), QosTarget.average(0.9))
        after = snapshot()["counters"].get("smt.simulator.requests", 0)
        return after - before, [s.instances for s in servers]

    def test_requests_scale_with_distinct_combinations(self):
        requests_one, decisions_one = self._oracle_run(1)
        requests_many, decisions_many = self._oracle_run(5)
        assert requests_one > 0
        assert requests_many == requests_one
        assert decisions_many == decisions_one * 5
