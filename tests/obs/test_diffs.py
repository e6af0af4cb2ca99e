"""Report diffing: structured deltas, provenance changes, rendering."""

from __future__ import annotations

from repro.obs import diffs
from repro.obs import report as obs_report
from repro.obs.registry import MetricsRegistry


def _report(*, counters=None, spans=None, wall=1.0, audit=None):
    registry = MetricsRegistry()
    for name, value in (counters or {}).items():
        registry.counter(name).inc(value)
    for path, duration in (spans or {}).items():
        registry.span_histogram(path).record(duration)
    return obs_report.build_report(command=["unit-test"], wall_seconds=wall,
                                   metrics=registry.snapshot(), audit=audit)


class TestDiffReports:
    def test_orders_spans_by_absolute_movement(self):
        a = _report(spans={"serve.replay": 1.0, "serve.place": 1.0})
        b = _report(spans={"serve.replay": 1.1, "serve.place": 5.0})
        delta = diffs.diff_reports(a, b)
        assert delta["spans"][0][0] == "serve.place"
        assert delta["wall_seconds"] == (1.0, 1.0)

    def test_unchanged_counters_are_dropped(self):
        a = _report(counters={"serve.engine.arrivals": 5,
                              "serve.engine.epochs": 2})
        b = _report(counters={"serve.engine.arrivals": 9,
                              "serve.engine.epochs": 2})
        delta = diffs.diff_reports(a, b)
        assert [row[0] for row in delta["counters"]] == [
            "serve.engine.arrivals"
        ]

    def test_audit_means_are_surfaced(self):
        audit = {"samples": 1, "overall": {"count": 1, "sum_signed": 0.0,
                                           "sum_abs": 0.0, "max_abs": 0.0,
                                           "mean_abs": 0.04,
                                           "mean_signed": 0.0},
                 "pools": {}, "pairs": {}}
        delta = diffs.diff_reports(_report(audit=audit), _report())
        assert delta["audit_mean_abs"] == (0.04, None)


class TestProvenanceChanges:
    def test_identical_provenance_is_quiet(self):
        report = _report()
        assert diffs.provenance_changes(report, report) == []

    def test_env_knob_changes_are_named(self):
        a, b = _report(), _report()
        a["provenance"] = dict(a["provenance"],
                               env={"SMITE_JOBS": "1"})
        b["provenance"] = dict(b["provenance"],
                               env={"SMITE_NO_CACHE": "1"})
        changes = diffs.provenance_changes(a, b)
        assert "SMITE_JOBS: 1 -> <unset>" in changes
        assert "SMITE_NO_CACHE: <unset> -> 1" in changes

    def test_schema_one_reports_compare_without_provenance(self):
        legacy = {"schema": 1, "metrics": {}}
        assert diffs.provenance_changes(legacy, legacy) == []


class TestRenderDiff:
    def test_warns_on_environment_change(self):
        a, b = _report(), _report()
        a["provenance"] = dict(a["provenance"], python="3.10.0")
        b["provenance"] = dict(b["provenance"], python="3.12.0")
        text = diffs.render_diff(a, b)
        assert "environment changed" in text
        assert "3.10.0 -> 3.12.0" in text

    def test_identical_reports_render_a_stable_message(self):
        report = _report(wall=None)
        assert diffs.render_diff(report, report) == (
            "reports are metric-identical"
        )

    def test_old_schema_reports_render_na_for_missing_sections(self):
        """A report written before the adapt/alerts sections existed must
        diff cleanly against a current one: 'n/a' on the old side, never a
        KeyError (regression: ISSUE 10)."""
        legacy = {"schema": 2, "metrics": {"counters": {}, "gauges": {},
                                           "histograms": {}, "spans": {}},
                  "wall_seconds": 1.0}
        current = _report()
        current["adapt"] = {"swaps": 2, "model_version": 3}
        current["alerts"] = {"firings": 1, "resolves": 1, "rules": [],
                             "firing": [], "events": []}
        delta = diffs.diff_reports(legacy, current)
        assert delta["adapt_swaps"] == (None, 2)
        assert delta["alert_firings"] == (None, 1)
        text = diffs.render_diff(legacy, current)
        assert "swaps n/a -> 2" in text
        assert "firings n/a -> 1" in text
        # And both ways round, including legacy-vs-legacy.
        assert "swaps 2 -> n/a" in diffs.render_diff(current, legacy)
        assert "adaptation" not in diffs.render_diff(legacy, legacy)
        assert "alerts" not in diffs.render_diff(legacy, legacy)

    def test_span_and_counter_tables_render(self):
        a = _report(counters={"serve.engine.arrivals": 5},
                    spans={"serve.replay": 1.0})
        b = _report(counters={"serve.engine.arrivals": 8},
                    spans={"serve.replay": 3.0})
        text = diffs.render_diff(a, b, a_label="before", b_label="after")
        assert "span time deltas" in text
        assert "counter deltas" in text
        assert "before" in text and "after" in text
        assert "x3.00" in text
