"""Cluster policies prefetch what their decisions read.

``Cluster.apply_policy`` hands each policy the fleet's distinct (app,
candidate) pairs before the per-server loop, so no decision solves a
placement one ``Simulator.run`` miss at a time. The fleet is shrunk to a
fresh, cache-less simulator and small training and candidate sets.
"""

import pytest

from repro.core.predictor import SMiTe
from repro.obs import snapshot
from repro.scheduler.cluster import Cluster
from repro.scheduler.policies import OraclePolicy, SMiTePolicy
from repro.scheduler.qos import QosTarget
from repro.smt.params import SANDY_BRIDGE_EN
from repro.smt.simulator import Simulator
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even, spec_odd


def _solves() -> int:
    """``Simulator.run`` misses that nothing prefetched."""
    return snapshot()["counters"].get("smt.simulator.run_solves", 0)


def _policy(kind, simulator):
    if kind == "oracle":
        return OraclePolicy(simulator)
    training = spec_odd()[:4]
    return SMiTePolicy(SMiTe(simulator).fit(training, mode="smt")
                       .fit_server(training, instance_counts=(1, 3, 6)))


@pytest.mark.parametrize("kind", ["smite", "oracle"])
def test_apply_policy_makes_no_unprefetched_solves(kind):
    simulator = Simulator(SANDY_BRIDGE_EN)
    policy = _policy(kind, simulator)
    cluster = Cluster.build(simulator, cloudsuite_apps()[:2],
                            spec_even()[:3], servers_per_app=4, seed=0)
    before = _solves()
    cluster.apply_policy(policy, QosTarget.average(0.90))
    assert _solves() == before
    assert any(server.is_colocated for server in cluster.servers)
