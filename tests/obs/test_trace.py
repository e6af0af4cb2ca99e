"""The trace ring buffer, its Chrome export, and the global lifecycle."""

from __future__ import annotations

import json

import pytest

from repro.obs import trace
from repro.obs.registry import MetricsRegistry
from repro.obs.report import recording
from repro.obs.spans import span, time_histogram
from tests.obs.trace_schema import validate_chrome_trace


@pytest.fixture(autouse=True)
def no_ambient_tracer():
    """Tests own the global tracer; never leak one across tests."""
    trace.uninstall()
    yield
    trace.uninstall()


class TestTracer:
    def test_records_all_event_kinds(self):
        tracer = trace.Tracer()
        tracer.begin("serve.replay")
        tracer.instant("serve.decision", {"job": 1})
        tracer.counter_value("serve.engine.running", 3.0)
        tracer.end("serve.replay")
        phases = [event.ph for event in tracer.events()]
        assert phases == ["B", "i", "C", "E"]
        assert tracer.emitted == 4
        assert tracer.dropped == 0

    def test_ring_bound_drops_oldest(self):
        tracer = trace.Tracer(capacity=3)
        for index in range(8):
            tracer.instant("serve.decision", {"job": index})
        events = tracer.events()
        assert len(events) == 3
        assert [event.args["job"] for event in events] == [5, 6, 7]
        assert tracer.emitted == 8
        assert tracer.dropped == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            trace.Tracer(capacity=0)

    def test_sim_time_routes_to_the_simulated_track(self):
        tracer = trace.Tracer()
        tracer.instant("serve.decision", sim_time_s=12.5)
        tracer.counter_value("serve.engine.running", 1.0, sim_time_s=600.0)
        tracer.instant("serve.decision")
        sim, sample, wall = tracer.events()
        assert sim.pid == trace.SIM_TRACK
        assert sim.ts_us == pytest.approx(12.5e6)
        assert sample.pid == trace.SIM_TRACK
        assert sample.ts_us == pytest.approx(600e6)
        assert wall.pid == trace.WALL_TRACK

    def test_wall_timestamps_are_monotonic(self):
        tracer = trace.Tracer()
        tracer.begin("serve.replay")
        tracer.end("serve.replay")
        first, second = tracer.events()
        assert 0.0 <= first.ts_us <= second.ts_us


class TestChromeExport:
    def test_export_passes_the_trace_event_schema(self):
        tracer = trace.Tracer()
        tracer.begin("serve.replay")
        tracer.instant("serve.decision", {"placement": "colocated"},
                       sim_time_s=3.0)
        tracer.counter_value("serve.slo.violation_rate", 0.25,
                            sim_time_s=3600.0)
        tracer.end("serve.replay")
        validate_chrome_trace(tracer.chrome_trace())

    def test_export_names_both_tracks_and_counts_drops(self):
        tracer = trace.Tracer(capacity=2)
        for index in range(5):
            tracer.instant("serve.decision", {"job": index})
        doc = tracer.chrome_trace()
        metadata = [event for event in doc["traceEvents"]
                    if event["ph"] == "M"]
        assert {event["args"]["name"] for event in metadata} == {
            "wall-clock", "simulated-clock",
        }
        assert doc["otherData"]["dropped"] == 3
        assert doc["otherData"]["emitted"] == 5
        assert doc["otherData"]["capacity"] == 2

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer = trace.Tracer()
        tracer.begin("serve.replay")
        tracer.end("serve.replay")
        path = trace.write_chrome_trace(tmp_path / "deep" / "t.json",
                                        tracer)
        doc = json.loads(path.read_text(encoding="utf-8"))
        validate_chrome_trace(doc)
        assert doc["otherData"]["generator"] == "repro.obs.trace"


class TestGlobalLifecycle:
    def test_off_by_default_and_noop(self):
        assert trace.active() is None
        # Module-level emitters must be safe no-ops when off.
        trace.instant("serve.decision")
        trace.counter_value("serve.engine.running", 1.0)

    def test_install_activates_and_uninstall_returns_the_tracer(self):
        tracer = trace.install()
        assert trace.active() is tracer
        trace.instant("serve.decision")
        returned = trace.uninstall()
        assert returned is tracer
        assert trace.active() is None
        assert len(tracer.events()) == 1

    def test_tracing_contextmanager_writes_on_exit(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv(trace.ENV_TRACE_OUT, raising=False)
        target = tmp_path / "ctx.trace.json"
        with recording(trace_out=target):
            assert trace.active() is not None
            trace.instant("serve.decision")
        assert trace.active() is None
        doc = json.loads(target.read_text())
        validate_chrome_trace(doc)
        assert "serve.decision" in {e["name"] for e in doc["traceEvents"]}


class TestSpanIntegration:
    def test_spans_emit_begin_end_pairs_when_active(self):
        registry = MetricsRegistry()
        tracer = trace.install()
        with span("outer", registry=registry):
            with span("inner", registry=registry):
                pass
        names = [(event.name, event.ph) for event in tracer.events()]
        assert names == [("outer", "B"), ("outer/inner", "B"),
                         ("outer/inner", "E"), ("outer", "E")]

    def test_failed_span_marks_the_end_event(self):
        registry = MetricsRegistry()
        tracer = trace.install()
        with pytest.raises(RuntimeError):
            with span("outer", registry=registry):
                raise RuntimeError("boom")
        end = tracer.events()[-1]
        assert end.ph == "E"
        assert end.args.get("error") is True

    def test_time_histogram_emits_events_too(self):
        registry = MetricsRegistry()
        tracer = trace.install()
        with time_histogram("op_seconds", registry=registry):
            pass
        assert [event.ph for event in tracer.events()] == ["B", "E"]

    def test_spans_cost_nothing_when_off(self):
        registry = MetricsRegistry()
        with span("outer", registry=registry):
            pass
        # No tracer was installed; the span still recorded its histogram.
        assert registry.snapshot()["spans"]["outer"]["count"] == 1


class TestEnvPlumbing:
    def test_env_tracer_requires_the_variable(self, tmp_path, monkeypatch):
        monkeypatch.delenv(trace.ENV_TRACE_OUT, raising=False)
        monkeypatch.chdir(tmp_path)
        with recording():
            assert trace.active() is None
        assert list(tmp_path.iterdir()) == []

    def test_env_tracer_installs_once_and_writes(self, tmp_path,
                                                 monkeypatch):
        target = tmp_path / "env.trace.json"
        monkeypatch.setenv(trace.ENV_TRACE_OUT, str(target))
        with recording():
            tracer = trace.active()
            assert tracer is not None
            trace.instant("serve.decision")
            assert trace.active() is tracer  # one tracer for the block
        assert trace.active() is None
        validate_chrome_trace(json.loads(target.read_text()))

    def test_flag_wins_over_the_variable(self, tmp_path, monkeypatch):
        flag, env = tmp_path / "flag.json", tmp_path / "env.json"
        monkeypatch.setenv(trace.ENV_TRACE_OUT, str(env))
        with recording(trace_out=flag):
            pass
        validate_chrome_trace(json.loads(flag.read_text()))
        assert not env.exists()


class TestReadingTraces:
    def test_top_events_ranks_by_duration(self):
        doc = {"traceEvents": [
            {"name": "short", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
            {"name": "short", "ph": "E", "ts": 1000.0, "pid": 1, "tid": 1},
            {"name": "long", "ph": "B", "ts": 0.0, "pid": 1, "tid": 2},
            {"name": "long", "ph": "E", "ts": 9000.0, "pid": 1, "tid": 2},
            {"name": "complete", "ph": "X", "ts": 0.0, "dur": 4000.0,
             "pid": 2, "tid": 1},
            {"name": "marker", "ph": "i", "ts": 5.0, "pid": 1, "tid": 1,
             "s": "t"},
        ]}
        rows = trace.top_events(doc, limit=2)
        assert [row[0] for row in rows] == ["long", "complete"]
        assert rows[0][3] == pytest.approx(9.0)  # ms
        assert rows[1][1] == "simulated-clock"

    def test_render_summary_mentions_drops_and_ranks(self):
        tracer = trace.Tracer()
        tracer.begin("serve.replay")
        tracer.end("serve.replay")
        text = trace.render_trace_summary(tracer.chrome_trace())
        assert "0 dropped" in text
        assert "serve.replay" in text

    def test_render_summary_handles_marker_only_traces(self):
        tracer = trace.Tracer()
        tracer.instant("serve.decision")
        text = trace.render_trace_summary(tracer.chrome_trace())
        assert "markers/samples only" in text
