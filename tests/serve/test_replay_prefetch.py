"""Serve replays batch-solve every measurement their scoring reads.

``ServingEngine`` scores each unseen colocation state through
``measure_server_degradation``, which reads the unloaded server, the
loaded server and the batch app's solo run. Whatever the decider — even
one that consults no predictor, so nothing else warms those placements —
the engine's reading-level prefetch covers all three.
"""

import pytest

from repro.obs import snapshot
from repro.serve.engine import ServingEngine
from repro.serve.service import BaselineDecider, RandomDecider
from repro.serve.traffic import poisson_trace
from repro.smt.params import SANDY_BRIDGE_EN
from repro.smt.simulator import Simulator
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even


def _solves() -> int:
    """``Simulator.run`` misses that nothing prefetched."""
    return snapshot()["counters"].get("smt.simulator.run_solves", 0)


@pytest.mark.parametrize("decider", [RandomDecider(seed=3), BaselineDecider()],
                         ids=["random", "baseline"])
def test_replay_makes_no_unprefetched_solves(decider):
    simulator = Simulator(SANDY_BRIDGE_EN)
    engine = ServingEngine(simulator, cloudsuite_apps()[:2], decider,
                           servers_per_app=3, epoch_s=300.0, window_s=900.0)
    trace = poisson_trace(spec_even()[:3], rate_per_s=0.02,
                          horizon_s=3_600.0, seed=0)
    before = _solves()
    outcome = engine.replay(trace)
    assert _solves() == before
    # Random colocates, so its scoring reads loaded servers.
    assert (outcome.colocated_placed > 0) == isinstance(decider, RandomDecider)
