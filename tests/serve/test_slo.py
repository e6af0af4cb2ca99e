"""Unit tests for windowed SLO accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.scheduler.qos import QosTarget
from repro.serve.slo import WindowedSlo, window_violation_stats
from repro.workloads.cloudsuite import cloudsuite_apps
from tests.serve.scalar_oracle import OnlineServer


def _server(index, app, degradation, instances):
    server = OnlineServer(index=index, latency_app=app)
    for i in range(instances):
        server.resident_jobs[i] = None
    server.actual_degradation = degradation
    return server


@pytest.fixture(scope="module")
def apps():
    return cloudsuite_apps()[:2]


class TestWindowViolationStats:
    def test_counts_only_colocated(self, apps):
        target = QosTarget.average(0.90)  # 10% degradation budget
        servers = [
            _server(0, apps[0], 0.05, 2),   # colocated, within budget
            _server(1, apps[0], 0.20, 1),   # colocated, violated
            _server(2, apps[1], 0.00, 0),   # idle: ignored
        ]
        stats = window_violation_stats(servers, target)
        assert stats.colocated_servers == 2
        assert stats.violated_servers == 1
        assert stats.rate == pytest.approx(0.5)
        assert stats.worst_magnitude > 0.0

    def test_no_colocations_no_violations(self, apps):
        stats = window_violation_stats(
            [_server(0, apps[0], 0.0, 0)], QosTarget.average(0.95)
        )
        assert stats.colocated_servers == 0
        assert stats.rate == 0.0


class TestWindowedSlo:
    def test_samples_roll_into_windows(self, apps):
        target = QosTarget.average(0.90)
        slo = WindowedSlo(100.0, target)
        fleet = [_server(0, apps[0], 0.05, 3)]
        for t in (50.0, 100.0, 150.0, 200.0):
            slo.observe(t, fleet, threads_per_server=6)
        windows = slo.finish()
        # 50 and the boundary sample 100 belong to window 0; 150 and the
        # boundary sample 200 to window 1.
        assert [w.index for w in windows] == [0, 1]
        assert [w.samples for w in windows] == [2, 2]
        assert windows[0].start_s == 0.0
        assert windows[0].end_s == 100.0

    def test_utilization_gain_is_instances_over_baseline(self, apps):
        slo = WindowedSlo(100.0, QosTarget.average(0.90))
        fleet = [_server(0, apps[0], 0.0, 3),
                 _server(1, apps[0], 0.0, 0)]
        slo.observe(100.0, fleet, threads_per_server=6)
        (window,) = slo.finish()
        assert window.mean_utilization_gain == pytest.approx(3 / 12)

    def test_per_app_violation_timeline(self, apps):
        slo = WindowedSlo(100.0, QosTarget.average(0.90))
        fleet = [
            _server(0, apps[0], 0.50, 1),  # violated
            _server(1, apps[1], 0.01, 1),  # fine
        ]
        slo.observe(60.0, fleet, threads_per_server=6)
        slo.observe(100.0, fleet, threads_per_server=6)
        (window,) = slo.finish()
        assert window.per_app_violations == ((apps[0].name, 2),)
        assert window.violations.violated_servers == 2
        assert window.violations.colocated_servers == 4

    def test_gap_produces_empty_windows(self, apps):
        slo = WindowedSlo(100.0, QosTarget.average(0.90))
        fleet = [_server(0, apps[0], 0.0, 1)]
        slo.observe(50.0, fleet, threads_per_server=6)
        slo.observe(350.0, fleet, threads_per_server=6)
        windows = slo.finish()
        assert [w.index for w in windows] == [0, 1, 2, 3]
        assert [w.samples for w in windows] == [1, 0, 0, 1]

    def test_series_lines_are_deterministic(self, apps):
        def build():
            slo = WindowedSlo(100.0, QosTarget.average(0.90))
            fleet = [_server(0, apps[0], 0.15, 2)]
            slo.observe(100.0, fleet, threads_per_server=6)
            return "\n".join(w.as_line() for w in slo.finish())

        assert build() == build()
        assert "window=0" in build()

    def test_bad_window_width_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowedSlo(0.0, QosTarget.average(0.90))
