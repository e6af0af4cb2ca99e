"""Unit tests for the discrete-event serving engine."""

import multiprocessing
import os
import subprocess
import sys
import textwrap

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.scheduler.qos import QosTarget
from repro.serve.engine import EventRecord, ReplayOutcome, ServingEngine
from repro.serve.service import BaselineDecider, Decider, Decision, RandomDecider
from repro.serve.shard import EpochShardPool
from repro.serve.slo import WindowedSlo
from repro.serve.traffic import poisson_trace
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even


class FixedDecider(Decider):
    """Always admits up to a fixed instance count (test stub)."""

    name = "fixed"

    def __init__(self, count: int) -> None:
        self.count = count

    def _decide(self, latency_app, batch_profile, *, max_instances):
        return Decision(max_safe_instances=self.count, cached=True)


@pytest.fixture(scope="module")
def apps():
    return cloudsuite_apps()[:2]


@pytest.fixture(scope="module")
def pool():
    return spec_even()[:3]


def _trace(pool, *, rate=0.02, horizon=3_600.0, seed=0, **kwargs):
    return poisson_trace(pool, rate_per_s=rate, horizon_s=horizon,
                         seed=seed, **kwargs)


def _engine(snb_sim, apps, decider, **kwargs):
    kwargs.setdefault("servers_per_app", 3)
    kwargs.setdefault("epoch_s", 300.0)
    kwargs.setdefault("window_s", 900.0)
    return ServingEngine(snb_sim, apps, decider, **kwargs)


class TestReplayBooks:
    def test_baseline_sends_everything_to_the_pool(self, snb_sim, apps,
                                                   pool):
        outcome = _engine(snb_sim, apps, BaselineDecider()).replay(
            _trace(pool))
        assert outcome.colocated_placed == 0
        assert outcome.baseline_placed == outcome.arrivals
        assert outcome.arrivals == (outcome.departures
                                    + outcome.still_placed)

    def test_fixed_decider_colocates(self, snb_sim, apps, pool):
        outcome = _engine(snb_sim, apps, FixedDecider(6)).replay(
            _trace(pool))
        assert outcome.colocated_placed > 0
        assert (outcome.colocated_placed + outcome.baseline_placed
                == outcome.arrivals)

    def test_jobs_outliving_the_horizon_stay_placed(self, snb_sim, apps,
                                                    pool):
        trace = _trace(pool, rate=0.01, horizon=1_000.0,
                       min_duration_s=5_000.0, max_duration_s=6_000.0)
        outcome = _engine(snb_sim, apps, FixedDecider(6)).replay(trace)
        assert outcome.departures == 0
        assert outcome.still_placed == outcome.arrivals

    def test_event_stream_is_arrivals_plus_departures(self, snb_sim, apps,
                                                      pool):
        outcome = _engine(snb_sim, apps, FixedDecider(6)).replay(
            _trace(pool))
        kinds = [e.kind for e in outcome.events]
        assert kinds.count("arrive") == outcome.arrivals
        assert kinds.count("depart") == outcome.departures
        times = [e.time_s for e in outcome.events]
        assert times == sorted(times)

    def test_reconcile_raises_on_cooked_books(self):
        with pytest.raises(SchedulingError):
            ReplayOutcome(
                policy="x", trace_kind="poisson", seed=0, horizon_s=1.0,
                arrivals=3, departures=1, still_placed=1,
                colocated_placed=2, baseline_placed=1,
                shed=0, events=(), windows=(),
            )


class TestPlacement:
    def test_same_profile_jobs_pack_one_server(self, snb_sim, apps):
        pool = spec_even()[:1]
        # Arrivals overlap (long durations, short horizon): bin-packing
        # should stack same-profile jobs on one server per pool.
        trace = _trace(pool, rate=0.005, horizon=2_400.0,
                       min_duration_s=50_000.0, max_duration_s=60_000.0)
        outcome = _engine(snb_sim, apps, FixedDecider(6)).replay(trace)
        colocated_servers = {
            e.server for e in outcome.events
            if e.kind == "arrive" and e.placement == "colocated"
        }
        # Deterministic round-robin routes to both app pools; within each
        # pool everything stacks on the first server.
        assert len(colocated_servers) <= len(apps)

    def test_cap_respected_then_overflow_to_baseline(self, snb_sim, apps):
        pool = spec_even()[:1]
        trace = _trace(pool, rate=0.02, horizon=2_400.0,
                       min_duration_s=50_000.0, max_duration_s=60_000.0)
        cap = 2
        outcome = _engine(snb_sim, apps, FixedDecider(cap),
                          servers_per_app=1).replay(trace)
        peak = {}
        for e in outcome.events:
            if e.kind == "arrive" and e.placement == "colocated":
                peak[e.server] = max(peak.get(e.server, 0),
                                     e.instances_after)
        assert peak
        assert all(count <= cap for count in peak.values())
        assert outcome.baseline_placed > 0

    def test_departure_frees_the_context(self, snb_sim, apps):
        pool = spec_even()[:1]
        trace = _trace(pool, rate=0.01, horizon=3_600.0,
                       min_duration_s=100.0, max_duration_s=200.0)
        outcome = _engine(snb_sim, apps, FixedDecider(1),
                          servers_per_app=1).replay(trace)
        # With cap 1 and short jobs, the single server keeps being
        # reused: several distinct colocations despite one slot.
        colocated_arrivals = [
            e for e in outcome.events
            if e.kind == "arrive" and e.placement == "colocated"
        ]
        assert len(colocated_arrivals) > 1
        assert all(e.instances_after == 1 for e in colocated_arrivals)


class TestDeterminism:
    def test_two_replays_are_byte_identical(self, snb_sim, apps, pool):
        def run():
            engine = _engine(snb_sim, apps, RandomDecider(seed=7),
                             slo=WindowedSlo(900.0,
                                             QosTarget.average(0.95)))
            return engine.replay(_trace(pool, seed=5))

        a, b = run(), run()
        assert a.event_log() == b.event_log()
        assert a.slo_series() == b.slo_series()

    def test_event_lines_are_stable(self):
        record = EventRecord(
            time_s=12.5, kind="arrive", job_id=3, profile="470.lbm",
            app="web-search", server=2, placement="colocated",
            instances_after=4,
        )
        assert record.as_line() == (
            "12.500000 arrive job=3 profile=470.lbm app=web-search "
            "server=2 placement=colocated instances=4"
        )


class TestValidation:
    def test_needs_apps(self, snb_sim):
        with pytest.raises(ConfigurationError):
            ServingEngine(snb_sim, [], BaselineDecider())

    def test_bad_epoch_window_rejected(self, snb_sim, apps):
        with pytest.raises(ConfigurationError):
            ServingEngine(snb_sim, apps, BaselineDecider(),
                          epoch_s=600.0, window_s=300.0)

    def test_bad_servers_per_app_rejected(self, snb_sim, apps):
        with pytest.raises(ConfigurationError):
            ServingEngine(snb_sim, apps, BaselineDecider(),
                          servers_per_app=0)


#: Replays a 2-shard trace whose decider SIGKILLs one placement worker
#: on its third epoch, then reports the error and the surviving
#: children. Runs in its own interpreter: a leaked worker blocks
#: interpreter exit, which only a subprocess timeout can observe.
_KILL_SCRIPT = textwrap.dedent("""
    import multiprocessing, os, signal, sys
    from repro.errors import SchedulingError
    from repro.obs import PredictionAudit
    from repro.scheduler.qos import QosTarget
    from repro.serve.engine import ServingEngine
    from repro.serve.service import BaselineDecider
    from repro.serve.slo import WindowedSlo
    from repro.serve.traffic import poisson_trace
    from repro.smt.params import SANDY_BRIDGE_EN
    from repro.smt.simulator import Simulator
    from repro.workloads.cloudsuite import cloudsuite_apps
    from repro.workloads.spec import spec_even

    class KillingDecider(BaselineDecider):
        calls = 0

        def decide_batch(self, batch):
            self.calls += 1
            if self.calls == 3:
                victim = multiprocessing.active_children()[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(10)
            return super().decide_batch(batch)

    class NoSwaps:
        \"\"\"Adaptation hook that never swaps: one-epoch runs.\"\"\"

        def observe(self, *args, **kwargs):
            pass

        def end_epoch(self, time_s):
            return False

    adapt = sys.argv[1] == "adapt"
    target = QosTarget.average(0.9)
    audit = PredictionAudit()
    engine = ServingEngine(
        Simulator(SANDY_BRIDGE_EN), cloudsuite_apps()[:2], KillingDecider(),
        servers_per_app=3, epoch_s=300.0, window_s=900.0,
        slo=WindowedSlo(900.0, target, audit=audit), audit=audit,
        adaptation=NoSwaps() if adapt else None,
    )
    trace = poisson_trace(spec_even()[:3], rate_per_s=0.02,
                          horizon_s=3_600.0, seed=0)
    try:
        engine.replay(trace, shards=2)
    except SchedulingError as exc:
        print("raised:", exc)
    print("alive:", len(multiprocessing.active_children()))
""")


class TestShardFailure:
    @pytest.mark.parametrize("mode", ["whole-trace", "adapt"])
    def test_killed_worker_raises_and_reaps(self, mode):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _KILL_SCRIPT, mode],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].startswith("raised: shard ")
        assert "placement worker died (exit code -9)" in lines[0]
        assert lines[1] == "alive: 0"

    def test_failing_worker_reports_its_traceback(self):
        pool = EpochShardPool([(2, 4)] * 2, shards=2)
        with pytest.raises(SchedulingError,
                           match=r"(?s)shard 0 placement worker failed"
                                 r":.*Traceback.*TypeError"):
            pool.step([("not columns",), ("not columns",)])
        assert multiprocessing.active_children() == []
