"""The telemetry time-series: cadence, ring bounds, merge discipline,
exports, and the `obs top` rendering."""

from __future__ import annotations

import json

import pytest

from repro.obs import timeseries
from repro.obs.registry import MetricsRegistry
from repro.obs.report import recording
from repro.obs.timeseries import (
    TelemetrySeries,
    load_jsonl,
    render_top,
    sparkline,
    write_jsonl,
    write_openmetrics,
    write_telemetry,
)


@pytest.fixture(autouse=True)
def _no_global_sampler():
    timeseries.uninstall()
    yield
    timeseries.uninstall()


class TestSampling:
    def test_validates_construction(self):
        with pytest.raises(ValueError):
            TelemetrySeries(0.0)
        with pytest.raises(ValueError):
            TelemetrySeries(10.0, 0)

    def test_maybe_sample_gates_on_the_cadence_grid(self):
        series = TelemetrySeries(300.0, registry=MetricsRegistry())
        assert series.maybe_sample(100.0) is None
        assert series.maybe_sample(299.9) is None
        frame = series.maybe_sample(300.0)
        assert frame is not None and frame["t"] == 300.0
        # Within the same cadence window: gated again.
        assert series.maybe_sample(400.0) is None
        # A tick can skip whole intervals; the next grid point after the
        # tick rearms the gate.
        assert series.maybe_sample(1_000.0) is not None
        assert series.maybe_sample(1_100.0) is None
        assert series.maybe_sample(1_200.0) is not None

    def test_tracked_registry_channels(self):
        registry = MetricsRegistry()
        series = TelemetrySeries(60.0, registry=registry)
        series.track_counter("c.events")
        series.track_gauge("g.level")
        series.track_percentile("h.size", 95.0)
        # Unset gauge and empty histogram are skipped, not zeroed.
        frame = series.sample(60.0)
        assert frame["counters"] == {"c.events": 0.0}
        assert frame["gauges"] == {}
        registry.counter("c.events").inc(4)
        registry.gauge("g.level").set(2.5)
        for value in (1.0, 2.0, 3.0):
            registry.histogram("h.size").record(value)
        frame = series.sample(120.0)
        assert frame["counters"] == {"c.events": 4.0}
        assert frame["gauges"]["g.level"] == 2.5
        assert frame["gauges"]["h.size.p95"] >= 2.0

    def test_explicit_channels_override_tracked_reads(self):
        registry = MetricsRegistry()
        registry.counter("c.events").inc(7)
        series = TelemetrySeries(60.0, registry=registry)
        series.track_counter("c.events")
        frame = series.sample(60.0, counters={"c.events": 99.0},
                              gauges={"g.x": 1.0},
                              alerts={"a.rule": 1.0})
        assert frame["counters"]["c.events"] == 99.0
        assert frame["gauges"]["g.x"] == 1.0
        assert frame["alerts"]["a.rule"] == 1.0

    def test_equal_time_frames_fold(self):
        series = TelemetrySeries(60.0, registry=MetricsRegistry())
        series.sample(60.0, counters={"c": 1.0}, gauges={"g": 1.0})
        series.sample(60.0, counters={"c": 2.0}, gauges={"g": 9.0})
        assert len(series.frames) == 1
        assert series.frames[0]["counters"]["c"] == 3.0
        assert series.frames[0]["gauges"]["g"] == 9.0

    def test_ring_bound_drops_oldest(self):
        series = TelemetrySeries(1.0, capacity=3,
                                 registry=MetricsRegistry())
        for t in range(1, 6):
            series.sample(float(t))
        assert [f["t"] for f in series.frames] == [3.0, 4.0, 5.0]
        assert series.dropped == 2
        assert series.emitted == 5

    def test_drain_new_is_a_cursor_not_a_consumer(self):
        series = TelemetrySeries(1.0, registry=MetricsRegistry())
        series.sample(1.0)
        series.sample(2.0)
        assert [f["t"] for f in series.drain_new()] == [1.0, 2.0]
        assert series.drain_new() == []
        series.sample(3.0)
        assert [f["t"] for f in series.drain_new()] == [3.0]
        # The ring still holds everything for the end-of-run export.
        assert len(series.frames) == 3


class TestMerge:
    def test_shard_series_fold_to_the_single_series(self):
        """Two shards sampling the same grid merge to exactly the series
        one process would have recorded: counters add per time key,
        gauges last-set wins, frames interleave sorted."""
        parent = TelemetrySeries(60.0, registry=MetricsRegistry())
        shard_a = TelemetrySeries(60.0, registry=MetricsRegistry())
        shard_b = TelemetrySeries(60.0, registry=MetricsRegistry())
        shard_a.sample(60.0, counters={"c": 1.0}, gauges={"g": 1.0})
        shard_a.sample(120.0, counters={"c": 2.0})
        shard_b.sample(60.0, counters={"c": 10.0}, gauges={"g": 5.0})
        shard_b.sample(180.0, counters={"c": 20.0})
        parent.merge(shard_a.snapshot())
        parent.merge(shard_b.snapshot())
        frames = parent.frames
        assert [f["t"] for f in frames] == [60.0, 120.0, 180.0]
        assert frames[0]["counters"]["c"] == 11.0
        assert frames[0]["gauges"]["g"] == 5.0

    def test_merge_order_of_disjoint_shards_is_immaterial(self):
        def shard(offset):
            s = TelemetrySeries(60.0, registry=MetricsRegistry())
            s.sample(60.0 + offset, counters={"c": 1.0 + offset})
            return s

        one = TelemetrySeries(60.0, registry=MetricsRegistry())
        one.merge(shard(0.0).snapshot())
        one.merge(shard(60.0).snapshot())
        other = TelemetrySeries(60.0, registry=MetricsRegistry())
        other.merge(shard(60.0).snapshot())
        other.merge(shard(0.0).snapshot())
        assert json.dumps(one.snapshot()["frames"], sort_keys=True) == \
            json.dumps(other.snapshot()["frames"], sort_keys=True)

    def test_merge_respects_the_capacity_bound(self):
        parent = TelemetrySeries(1.0, capacity=2,
                                 registry=MetricsRegistry())
        child = TelemetrySeries(1.0, registry=MetricsRegistry())
        for t in (1.0, 2.0, 3.0):
            child.sample(t)
        parent.merge(child.snapshot())
        assert [f["t"] for f in parent.frames] == [2.0, 3.0]
        assert parent.dropped == 1


class TestGlobalSampler:
    def test_install_uninstall_lifecycle(self):
        assert timeseries.active() is None
        series = timeseries.install(120.0)
        assert timeseries.active() is series
        assert series.maybe_sample(120.0) is not None
        assert timeseries.uninstall() is series
        assert timeseries.active() is None

    def test_sampling_context_manager(self, tmp_path, monkeypatch):
        monkeypatch.delenv(timeseries.ENV_TELEMETRY_OUT, raising=False)
        out = tmp_path / "ctx.jsonl"
        with recording(telemetry_out=out, telemetry_interval=60.0):
            series = timeseries.active()
            assert series is not None and series.interval_s == 60.0
        assert timeseries.active() is None
        assert load_jsonl(out)["interval_s"] == 60.0

    def test_env_sampler_round_trip(self, tmp_path, monkeypatch):
        out = tmp_path / "t.jsonl"
        monkeypatch.setenv(timeseries.ENV_TELEMETRY_OUT, str(out))
        with recording(telemetry_interval=30.0):
            timeseries.active().sample(30.0, counters={"c": 1.0})
        assert timeseries.active() is None
        snap = load_jsonl(out)
        assert snap["interval_s"] == 30.0
        assert [f["t"] for f in snap["frames"]] == [30.0]

    def test_env_sampler_off_without_the_variable(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv(timeseries.ENV_TELEMETRY_OUT, raising=False)
        monkeypatch.chdir(tmp_path)
        with recording():
            assert timeseries.active() is None
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_block_still_writes(self, tmp_path, monkeypatch):
        monkeypatch.delenv(timeseries.ENV_TELEMETRY_OUT, raising=False)
        out = tmp_path / "failed.jsonl"
        with pytest.raises(RuntimeError):
            with recording(telemetry_out=out):
                timeseries.active().sample(300.0)
                raise RuntimeError("boom")
        assert timeseries.active() is None
        assert [f["t"] for f in load_jsonl(out)["frames"]] == [300.0]


class TestExports:
    def _series(self):
        series = TelemetrySeries(60.0, registry=MetricsRegistry())
        series.sample(60.0, counters={"c.events": 2.0},
                      gauges={"g.level": 1.5},
                      alerts={"serve.alert.x": 0.0})
        series.sample(120.0, counters={"c.events": 5.0},
                      gauges={"g.level": 0.5},
                      alerts={"serve.alert.x": 1.0})
        return series

    def test_jsonl_round_trip(self, tmp_path):
        series = self._series()
        path = write_jsonl(tmp_path / "t.jsonl", series)
        snap = load_jsonl(path)
        assert snap["interval_s"] == 60.0
        assert snap["emitted"] == 2
        assert json.dumps(snap["frames"], sort_keys=True) == \
            json.dumps(series.snapshot()["frames"], sort_keys=True)

    def test_load_skips_a_partial_tail_line(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl", self._series())
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"t": 180.0, "counters": {"c.ev')  # mid-write tail
        snap = load_jsonl(path)
        assert [f["t"] for f in snap["frames"]] == [60.0, 120.0]

    def test_openmetrics_exposition(self, tmp_path):
        path = write_openmetrics(tmp_path / "t.om", self._series())
        text = path.read_text(encoding="utf-8")
        assert "# TYPE smite_c_events counter" in text
        assert "smite_c_events_total 5 120.000" in text
        assert "# TYPE smite_g_level gauge" in text
        assert "smite_g_level 0.5 120.000" in text
        assert 'smite_alert_firing{rule="serve.alert.x"} 1 120.000' in text
        assert text.rstrip().endswith("# EOF")

    def test_write_telemetry_dispatches_on_suffix(self, tmp_path):
        series = self._series()
        om = write_telemetry(tmp_path / "t.prom", series)
        assert "# EOF" in om.read_text(encoding="utf-8")
        jsonl = write_telemetry(tmp_path / "t.jsonl", series)
        assert '"meta"' in jsonl.read_text(encoding="utf-8").splitlines()[0]


class TestRendering:
    def test_sparkline_scales_to_the_range(self):
        line = sparkline([0.0, 5.0, 10.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
        assert sparkline([]) == ""

    def test_render_top_rows(self):
        series = TestExports()._series()
        out = render_top(series.snapshot())
        assert "2 frame(s) @ 60s cadence" in out
        assert "rate  c.events" in out and "total 5" in out
        assert "gauge g.level" in out and "last 0.5" in out
        assert "alert serve.alert.x" in out and "FIRING" in out
        assert "fired 1x resolved 0x" in out

    def test_render_top_empty(self):
        out = render_top({"interval_s": 60.0, "frames": []})
        assert "(no frames yet)" in out
