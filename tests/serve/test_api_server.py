"""Server behavior: micro-batching, backpressure, edge cases, sharding."""

import os
import queue
import socket
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.adapt.swap import ModelRegistry
from repro.analysis.linreg import LinearModel
from repro.core.predictor import SMiTe
from repro.errors import ConfigurationError
from repro.obs import snapshot, timeseries
from repro.scheduler.qos import QosTarget
from repro.serve.api import ApiClient, ApiError, ApiServer, run_api_shards
from repro.serve.api.protocol import (
    HEADER_BYTES,
    E_BAD_FRAME,
    E_BAD_VERSION,
    E_DRAINING,
    E_FRAME_TOO_LARGE,
    E_OVERLOADED,
    E_UNKNOWN_WORKLOAD,
    encode_frame,
)
from repro.serve.service import (
    AdmissionControl,
    BaselineDecider,
    Decider,
    Decision,
    PredictionService,
)
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even, spec_odd


class RecordingDecider(Decider):
    """Cheap decider that records epochs; optional per-batch delay."""

    name = "recording"

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s
        self.epochs: list[list] = []

    def begin_epoch(self, candidates) -> None:
        self.epochs.append(list(candidates))
        if self.delay_s:
            time.sleep(self.delay_s)

    def _decide(self, latency_app, batch_profile, *, max_instances):
        return Decision(max_safe_instances=min(2, max_instances),
                        cached=False)

    def predicted_degradation(self, latency_app, batch_profile, instances):
        return 0.05 * instances


class ExecutorOnlyService(PredictionService):
    """Declines every memory-only epoch, so every batch hops."""

    def decide_cached(self, candidates):
        return None


class ThreadRecordingService(PredictionService):
    """Records which thread each kind of batch was decided on."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.threads: list[tuple[str, int]] = []

    def decide_cached(self, candidates):
        decisions = super().decide_cached(candidates)
        kind = "declined" if decisions is None else "loop"
        self.threads.append((kind, threading.get_ident()))
        return decisions

    def begin_epoch(self, candidates) -> None:
        self.threads.append(("executor", threading.get_ident()))
        super().begin_epoch(candidates)


def _counter_deltas(before, prefix):
    after = snapshot()["counters"]
    return {name: value - before.get(name, 0)
            for name, value in after.items()
            if name.startswith(prefix) and value != before.get(name, 0)}


def _place(client, request_id=None):
    message = {"op": "place", "latency_app": "web-search",
               "batch": "470.lbm", "max_instances": 6}
    if request_id is not None:
        message["id"] = request_id
    return client.send(message)


class TestRoundTrip:
    def test_all_ops(self):
        server = ApiServer(BaselineDecider())
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                assert client.ping()["pong"] is True
                placed = client.place("web-search", "470.lbm", 6)
                assert placed == {"max_safe_instances": 0, "shed": False,
                                  "cached": True}
                predicted = client.predict("web-search", "470.lbm", 2)
                assert predicted["predicted_degradation"] is None
                stats = client.stats()
                assert stats["policy"] == "baseline"
                assert stats["requests"] == 4
                # Deciders without a hot-swap surface report the
                # static model.
                assert stats["model_version"] == 0
                assert stats["model_hash"] is None
                assert stats["last_swap_epoch_s"] is None

    def test_pipelined_requests_answered_by_id(self):
        server = ApiServer(RecordingDecider(), batch_window_s=0.05)
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                ids = [_place(client, request_id=f"r{i}")
                       for i in range(5)]
                results = [client.wait(i) for i in reversed(ids)]
        assert all(r["max_safe_instances"] == 2 for r in results)

    def test_unknown_workload_keeps_connection_usable(self):
        server = ApiServer(BaselineDecider())
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                with pytest.raises(ApiError) as excinfo:
                    client.place("no-such-app", "470.lbm", 2)
                assert excinfo.value.code == E_UNKNOWN_WORKLOAD
                with pytest.raises(ApiError) as excinfo:
                    client.place("web-search", "no-such-batch", 2)
                assert excinfo.value.code == E_UNKNOWN_WORKLOAD
                assert client.ping()["pong"] is True

    def test_wrong_version_keeps_connection_usable(self):
        server = ApiServer(BaselineDecider())
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                with pytest.raises(ApiError) as excinfo:
                    client.request({"v": 99, "op": "ping"})
                assert excinfo.value.code == E_BAD_VERSION
                assert client.ping()["pong"] is True

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            ApiServer(BaselineDecider(), max_batch=0)
        with pytest.raises(ConfigurationError):
            ApiServer(BaselineDecider(), queue_bound=0)
        with pytest.raises(ConfigurationError):
            ApiServer(BaselineDecider(), max_requests=0)


class TestFramingEdgeCases:
    def _raw(self, host, port, payload):
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(payload)
            chunks = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks += chunk
        return chunks

    def test_malformed_frame_answered_then_closed(self):
        server = ApiServer(BaselineDecider())
        with server.background() as (host, port):
            garbage = len(b"not json").to_bytes(HEADER_BYTES, "big") \
                + b"not json"
            raw = self._raw(host, port, garbage)
        assert E_BAD_FRAME.encode() in raw  # error frame came back
        # ... and the connection was closed by the server (recv saw EOF).

    def test_oversized_announcement_answered_then_closed(self):
        server = ApiServer(BaselineDecider())
        with server.background() as (host, port):
            huge = (10 * 1024 * 1024).to_bytes(HEADER_BYTES, "big")
            raw = self._raw(host, port, huge + b"x")
        assert E_FRAME_TOO_LARGE.encode() in raw

    def test_oversized_payload_rejected_with_small_limit(self):
        server = ApiServer(BaselineDecider(), max_frame_bytes=128)
        with server.background() as (host, port):
            frame = encode_frame({"op": "ping", "pad": "y" * 256})
            raw = self._raw(host, port, frame)
        assert E_FRAME_TOO_LARGE.encode() in raw

    def test_client_disconnect_mid_batch_served_others(self):
        decider = RecordingDecider(delay_s=0.1)
        server = ApiServer(decider, batch_window_s=0.15)
        with server.background() as (host, port):
            doomed = ApiClient(host, port)
            _place(doomed)
            survivor = ApiClient(host, port)
            try:
                request_id = _place(survivor)
                doomed.close()  # vanishes while its request is queued
                result = survivor.wait(request_id)
                assert result["max_safe_instances"] == 2
                # Both requests went through the decider despite the
                # disconnect; the server is still healthy.
                assert sum(len(e) for e in decider.epochs) == 2
                assert survivor.ping()["pong"] is True
            finally:
                survivor.close()


class TestMicroBatching:
    def test_concurrent_clients_coalesce_into_one_batch(self):
        decider = RecordingDecider()
        server = ApiServer(decider, batch_window_s=0.25)
        with server.background() as (host, port):
            clients = [ApiClient(host, port) for _ in range(4)]
            try:
                ids = [_place(client) for client in clients]
                results = [client.wait(request_id)
                           for client, request_id in zip(clients, ids)]
            finally:
                for client in clients:
                    client.close()
        assert all(r["max_safe_instances"] == 2 for r in results)
        # All four in-flight requests landed in a single epoch batch.
        assert [len(epoch) for epoch in decider.epochs] == [4]

    def test_max_batch_splits_the_queue(self):
        decider = RecordingDecider()
        server = ApiServer(decider, batch_window_s=0.25, max_batch=3)
        before = snapshot()["counters"]
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                ids = [_place(client) for _ in range(7)]
                for request_id in ids:
                    client.wait(request_id)
        sizes = [len(epoch) for epoch in decider.epochs]
        assert sum(sizes) == 7
        assert max(sizes) <= 3
        # A decider without a memory-only path sees one begin_epoch per
        # batch: every batch hopped to the executor.
        deltas = _counter_deltas(before, "serve.api.")
        assert deltas["serve.api.batches"] == len(sizes)
        assert "serve.api.loop_batches" not in deltas


class TestBackpressure:
    def test_overflow_sheds_deterministically_with_fallback(self):
        decider = RecordingDecider()
        server = ApiServer(decider, queue_bound=4, batch_window_s=0.3,
                           retry_after_ms=75.0)
        served, shed = [], []
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                ids = [_place(client) for _ in range(20)]
                for request_id in ids:
                    try:
                        served.append(client.wait(request_id))
                    except ApiError as exc:
                        assert exc.code == E_OVERLOADED
                        assert exc.retry_after_ms == 75.0
                        shed.append(exc.fallback)
        # The seeded burst far exceeds the queue bound: exactly the
        # bound's worth is decided, the rest shed to the baseline with a
        # retry hint and a usable fallback answer.
        assert len(served) == 4
        assert len(shed) == 16
        assert all(f == {"max_safe_instances": 0, "shed": True,
                         "cached": False} for f in shed)
        counters = snapshot()["counters"]
        assert counters.get("serve.api.sheds", 0) >= 16

    def test_predict_overflow_has_no_fallback(self):
        server = ApiServer(RecordingDecider(), queue_bound=1,
                           batch_window_s=0.3)
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                first = _place(client)
                second = client.send(
                    {"op": "predict", "latency_app": "web-search",
                     "batch": "470.lbm", "instances": 2})
                client.wait(first)
                with pytest.raises(ApiError) as excinfo:
                    client.wait(second)
        assert excinfo.value.code == E_OVERLOADED
        assert excinfo.value.fallback is None


class TestDrain:
    def test_drain_answers_queued_work(self):
        decider = RecordingDecider(delay_s=0.05)
        server = ApiServer(decider, batch_window_s=0.2)
        client = None
        with server.background() as (host, port):
            client = ApiClient(host, port)
            ids = [_place(client) for _ in range(5)]
            deadline = time.monotonic() + 10
            while server.requests_served < 5:  # accepted, still pending
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("server never accepted the burst")
                time.sleep(0.005)
        # The context exit drained the server while the five requests
        # were still pending (the 0.2s batch window plus the slow
        # decider keep them queued); every one was answered first.
        try:
            results = [client.wait(request_id) for request_id in ids]
            assert all(r["max_safe_instances"] == 2 for r in results)
        finally:
            client.close()

    def test_max_requests_drains_and_rejects_new_work(self):
        server = ApiServer(RecordingDecider(), batch_window_s=0.3,
                           max_requests=1)
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                first = _place(client)
                second = _place(client)
                assert client.wait(first)["max_safe_instances"] == 2
                with pytest.raises(ApiError) as excinfo:
                    client.wait(second)
                assert excinfo.value.code == E_DRAINING

    def test_shutdown_op_stops_the_server(self):
        server = ApiServer(BaselineDecider())
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                assert client.shutdown()["stopping"] is True
            deadline = time.monotonic() + 10
            while not server._stopped.is_set():
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("server did not stop after shutdown op")
                time.sleep(0.01)


class TestMetricsOp:
    def test_disabled_without_a_sampler(self):
        server = ApiServer(BaselineDecider())
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                assert client.metrics() == {
                    "enabled": False, "frame": None, "frames": [],
                }

    def test_live_frame_and_recorded_tail(self):
        timeseries.install(0.05)
        try:
            server = ApiServer(BaselineDecider())
            with server.background() as (host, port):
                with ApiClient(host, port) as client:
                    client.ping()
                    time.sleep(0.2)  # let at least one cadence tick land
                    payload = client.metrics()
        finally:
            timeseries.uninstall()
        assert payload["enabled"] is True
        assert payload["interval_s"] == 0.05
        # The live frame reflects request/queue state right now, without
        # waiting for the next cadence boundary.
        frame = payload["frame"]
        assert frame["counters"]["serve.api.requests"] >= 2
        assert frame["gauges"]["serve.api.queue_depth"] == 0.0
        assert frame["alerts"]["serve.alert.queue_saturation"] == 0.0
        # The recorded tail holds the periodic samples.
        assert payload["frames"]
        assert all(f["t"] <= frame["t"] for f in payload["frames"])


class TestPredictionServiceIntegration:
    @pytest.fixture(scope="class")
    def service(self, snb_sim):
        predictor = SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")
        return PredictionService(predictor, QosTarget.average(0.90))

    def test_place_and_predict_through_the_socket(self, service):
        server = ApiServer(service, batch_window_s=0.05)
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                first = client.place("web-search", "471.omnetpp", 6)
                again = client.place("web-search", "471.omnetpp", 6)
                predicted = client.predict("web-search", "471.omnetpp", 2)
        assert 0 <= first["max_safe_instances"] <= 6
        assert not first["shed"]
        assert again["cached"]  # second ask hit the prediction LRU
        assert again["max_safe_instances"] == first["max_safe_instances"]
        assert predicted["predicted_degradation"] is not None

    def test_stats_surface_tracks_hot_swaps(self, snb_sim):
        predictor = SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")
        service = PredictionService(predictor, QosTarget.average(0.90))
        registry = ModelRegistry(service, predictor)
        n_features = len(predictor.model.dimensions)
        server = ApiServer(service)
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                static = client.stats()
                entry = registry.install(
                    {1: LinearModel(coefficients=np.zeros(n_features),
                                    intercept=0.1,
                                    r_squared=float("nan"))},
                    origin="rls", epoch_s=600.0,
                )
                swapped = client.stats()
        assert static["model_version"] == 0
        assert static["model_hash"] is None
        assert static["last_swap_epoch_s"] is None
        assert swapped["model_version"] == 1
        assert swapped["model_hash"] == entry.content_hash
        assert swapped["last_swap_epoch_s"] == 600.0

    def test_admission_budget_sheds_within_accepted_batch(self, snb_sim):
        predictor = SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")
        strict = PredictionService(
            predictor, QosTarget.average(0.90),
            admission=AdmissionControl(budget_ms_per_epoch=0.001))
        server = ApiServer(strict)
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                result = client.place("web-search", "473.astar", 6)
        # The request was accepted (no overloaded error) but the
        # admission controller's zero budget shed it to the baseline
        # inside the batch: the second backpressure layer.
        assert result == {"max_safe_instances": 0, "shed": True,
                          "cached": False}


class TestLoopDecisions:
    """All-hit place batches are decided on the loop, the rest hop."""

    @pytest.fixture(scope="class")
    def predictor(self, snb_sim):
        return SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")

    @staticmethod
    def _stream():
        """Every key once, then seeded places and predicts over them."""
        rng = np.random.default_rng(7)
        keys = [(app.name, profile.name)
                for app in cloudsuite_apps()[:2]
                for profile in spec_even()[:3]]
        warm = [{"op": "place", "latency_app": app, "batch": batch,
                 "max_instances": 2} for app, batch in keys]
        mixed = []
        for _ in range(30):
            app, batch = keys[rng.integers(len(keys))]
            if rng.random() < 0.25:
                mixed.append({"op": "predict", "latency_app": app,
                              "batch": batch,
                              "instances": int(rng.integers(1, 3))})
            else:
                mixed.append({"op": "place", "latency_app": app,
                              "batch": batch, "max_instances": 2})
        burst = [m for m in mixed if m["op"] == "place"] * 2
        return warm + mixed, burst

    def _serve(self, service):
        sequential, burst = self._stream()
        before = snapshot()["counters"]
        server = ApiServer(service)
        with server.background() as (host, port):
            with ApiClient(host, port) as client:
                results = [client.request(m) for m in sequential]
                # Pipelined hits coalesce into multi-request batches.
                ids = [client.send(m) for m in burst]
                results += [client.wait(i) for i in ids]
        loop_batches = _counter_deltas(before, "serve.api.loop_batches")
        return (results, _counter_deltas(before, "serve.service."),
                loop_batches.get("serve.api.loop_batches", 0))

    def test_loop_path_matches_executor_path(self, predictor):
        target = QosTarget.average(0.90)
        loop = PredictionService(predictor, target)
        hop = ExecutorOnlyService(predictor, target)
        loop_results, loop_counters, on_loop = self._serve(loop)
        hop_results, hop_counters, hopped_on_loop = self._serve(hop)
        assert on_loop > 0 and hopped_on_loop == 0
        assert loop_results == hop_results
        assert loop_counters == hop_counters
        assert loop_counters["serve.service.cache_hits"] > 0
        assert list(loop._lru.items()) == list(hop._lru.items())

    def test_hits_on_the_loop_thread_misses_on_an_executor(self, predictor):
        service = ThreadRecordingService(predictor, QosTarget.average(0.90))
        server = ApiServer(service)
        before = snapshot()["counters"]
        with server.background() as (host, port):
            loop_ident = next(t.ident for t in threading.enumerate()
                              if t.name == "smite-api-server")
            with ApiClient(host, port) as client:
                first = client.place("web-search", "470.lbm", 2)
                hits = [client.place("web-search", "470.lbm", 2)
                        for _ in range(3)]
                client.predict("web-search", "470.lbm", 1)
        assert not first["cached"]
        assert all(hit["cached"] for hit in hits)
        # The miss is declined on the loop, then decided on the
        # executor; a predict batch never asks for the loop path.
        assert [kind for kind, _ in service.threads] == [
            "declined", "executor", "loop", "loop", "loop", "executor"]
        for kind, ident in service.threads:
            assert (ident == loop_ident) == (kind != "executor")
        deltas = _counter_deltas(before, "serve.api.")
        assert deltas["serve.api.batches"] == 5
        assert deltas["serve.api.loop_batches"] == 3


#: Serves from two API shard workers and SIGKILLs one as soon as both
#: listen, then reports the error and the surviving children. Runs in
#: its own interpreter: a hung drain or a leaked worker only shows up
#: as a subprocess timeout.
_KILL_SHARD_SCRIPT = textwrap.dedent("""
    import multiprocessing, os, signal
    from repro.errors import SchedulingError
    from repro.serve.api import run_api_shards
    from repro.serve.service import BaselineDecider

    def kill_one(addresses):
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)

    try:
        run_api_shards(BaselineDecider(), shards=2, ready_callback=kill_one)
    except SchedulingError as exc:
        print("raised:", exc)
    print("alive:", len(multiprocessing.active_children()))
""")


class TestSharding:
    def test_two_shards_serve_and_merge_obs(self):
        before = snapshot()["counters"]
        addresses = queue.Queue()
        outcome = {}

        def run():
            outcome["summaries"] = run_api_shards(
                BaselineDecider(), shards=4, jobs=2,
                ready_callback=addresses.put)

        thread = threading.Thread(target=run)
        thread.start()
        bound = addresses.get(timeout=60)
        assert len(bound) == 2  # jobs caps the shard count
        for host, port in bound:
            with ApiClient(host, port) as client:
                assert client.place("web-search", "470.lbm", 4) == {
                    "max_safe_instances": 0, "shed": False,
                    "cached": True}
                client.shutdown()
        thread.join(60)
        assert not thread.is_alive()
        summaries = outcome["summaries"]
        assert [s["requests"] for s in summaries] == [2, 2]
        after = snapshot()["counters"]

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        # Worker-side serving counters merged back into this process.
        assert delta("serve.api.shard_workers") == 2
        assert delta("serve.api.connections") == 2
        assert delta("serve.api.requests") == 4

    def test_killed_worker_raises_and_reaps(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _KILL_SHARD_SCRIPT],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].startswith("raised: api shard ")
        assert lines[0].endswith(" worker died (exit code -9)")
        assert lines[1] == "alive: 0"

    def test_shard_config_validation(self):
        with pytest.raises(ConfigurationError):
            run_api_shards(BaselineDecider(), shards=0)
        with pytest.raises(ConfigurationError):
            run_api_shards(BaselineDecider(), shards=2, jobs=0)
