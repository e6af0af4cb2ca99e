"""Time-windowed utilization and QoS-violation accounting.

The engine samples the fleet at every epoch boundary; this module rolls
those samples into fixed-width windows over the simulated event clock.
Each closed :class:`SloWindow` aggregates the window's samples into one
:class:`~repro.scheduler.metrics.ViolationStats` (the same dataclass the
offline scale-out study reports), a mean utilization gain, and a per-app
violation timeline. The rendered series (:meth:`SloWindow.as_line`) is
deterministic, so two replays of the same trace can be compared byte for
byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.tail import TailLatencyModel
from repro.errors import ConfigurationError, SchedulingError
from repro.obs import PredictionAudit, counter, gauge, trace
from repro.obs.alerts import AlertEngine
from repro.scheduler.metrics import ViolationStats
from repro.scheduler.qos import QosTarget

__all__ = [
    "SloWindow",
    "WindowedSlo",
    "window_violation_stats",
]


def window_violation_stats(
    servers: Sequence,
    target: QosTarget,
    *,
    tail_models: dict[str, TailLatencyModel] | None = None,
) -> ViolationStats:
    """Score one fleet sample against the QoS target.

    Accepts any sequence of server-shaped objects (``is_colocated``,
    ``latency_app``, ``actual_degradation``), such as the offline
    ``ServerState``, and returns the same :class:`ViolationStats` the
    scale-out study uses. The engine scores aggregated groups through
    :meth:`WindowedSlo.observe_groups` instead.
    """
    colocated = [s for s in servers if s.is_colocated]
    violated = 0
    worst = 0.0
    total_magnitude = 0.0
    for server in colocated:
        tail_model = None
        if tail_models is not None:
            tail_model = tail_models.get(server.latency_app.name)
            if tail_model is None:
                raise SchedulingError(
                    f"no tail model for {server.latency_app.name}"
                )
        if not target.is_met(server.actual_degradation, tail_model):
            violated += 1
            magnitude = target.violation_magnitude(
                server.actual_degradation, tail_model
            )
            worst = max(worst, magnitude)
            total_magnitude += magnitude
    return ViolationStats(
        colocated_servers=len(colocated),
        violated_servers=violated,
        worst_magnitude=worst,
        mean_magnitude=(total_magnitude / violated) if violated else 0.0,
    )


@dataclass(frozen=True)
class SloWindow:
    """One closed accounting window over the simulated clock."""

    index: int
    start_s: float
    end_s: float
    samples: int
    mean_utilization_gain: float
    violations: ViolationStats
    #: (app name, violated samples in this window), in app order
    per_app_violations: tuple[tuple[str, int], ...]
    #: Mean absolute prediction residual of the window's audited
    #: comparisons (None when the run kept no prediction audit).
    calibration_drift: float | None = None

    def as_line(self) -> str:
        """Render as one stable, byte-comparable series line."""
        apps = " ".join(
            f"{name}={count}" for name, count in self.per_app_violations
        )
        drift = ("" if self.calibration_drift is None
                 else f"drift={self.calibration_drift:.6f} ")
        return (
            f"window={self.index} [{self.start_s:.1f},{self.end_s:.1f}) "
            f"samples={self.samples} gain={self.mean_utilization_gain:.6f} "
            f"colocated={self.violations.colocated_servers} "
            f"violated={self.violations.violated_servers} "
            f"worst={self.violations.worst_magnitude:.6f} {drift}{apps}"
            .rstrip()
        )


class WindowedSlo:
    """Rolls epoch-boundary fleet samples into fixed-width windows."""

    def __init__(
        self,
        window_s: float,
        target: QosTarget,
        *,
        tail_models: dict[str, TailLatencyModel] | None = None,
        audit: PredictionAudit | None = None,
        alerts: AlertEngine | None = None,
    ) -> None:
        if window_s <= 0.0:
            raise ConfigurationError(
                f"window width must be positive, got {window_s}"
            )
        self.window_s = window_s
        self.target = target
        self.tail_models = dict(tail_models) if tail_models else None
        #: When set (to the engine's audit instance), each window close
        #: drains the audit's window accumulator into the window's
        #: ``calibration_drift`` and the ``serve.audit.drift`` gauge.
        self.audit = audit
        #: When set, each window close feeds the window's signals
        #: (violation rate, calibration drift, shed rate) to the alert
        #: engine — deterministically, on the simulated clock, *before*
        #: the adaptation controller can react to the same window.
        self.alerts = alerts
        self._window_sheds = 0
        self._window_requests = 0
        self._windows: list[SloWindow] = []
        self._current: int | None = None
        self._samples: list[tuple[float, ViolationStats]] = []
        self._app_violations: dict[str, int] = {}
        # (app, degradation) -> (met, magnitude) verdict memo: group
        # scoring re-checks the same few colocation states every epoch.
        self._verdicts: dict[tuple[str, float], tuple[bool, float]] = {}

    # ------------------------------------------------------------------

    @property
    def closed_windows(self) -> tuple[SloWindow, ...]:
        """Windows closed so far (the still-open window excluded).

        The adaptation controller polls this at epoch boundaries to
        detect newly closed windows and their calibration drift.
        """
        return tuple(self._windows)

    def observe(
        self, time_s: float, servers: Sequence,
        *, threads_per_server: int,
    ) -> None:
        """Record one fleet sample taken at ``time_s``.

        Samples must arrive in nondecreasing time order; a sample landing
        past the current window closes it (and any empty windows between).
        The engine scores through :meth:`observe_groups` and does not
        call this: ``benchmarks/e2e/layers.py`` wraps it by name, so it
        stays until the benchmark drops that target.
        """
        # A sample at time t accounts to the window covering (t-w, t]:
        # epoch boundaries land on their window's closing edge.
        window_index = max(0, math.ceil(time_s / self.window_s) - 1)
        if self._current is None:
            self._current = window_index
        while window_index > self._current:
            self._close_window()
        stats = window_violation_stats(
            servers, self.target, tail_models=self.tail_models
        )
        baseline_busy = len(servers) * threads_per_server
        instances = sum(s.instances for s in servers)
        gain = (instances / baseline_busy) if baseline_busy else 0.0
        self._samples.append((gain, stats))
        for server in servers:
            if not server.is_colocated:
                continue
            name = server.latency_app.name
            if not self.target.is_met(
                server.actual_degradation,
                None if self.tail_models is None
                else self.tail_models.get(name),
            ):
                self._app_violations[name] = (
                    self._app_violations.get(name, 0) + 1
                )

    def observe_groups(
        self,
        time_s: float,
        groups: Sequence[tuple[str, float, int, int]],
        *,
        n_servers: int,
        threads_per_server: int,
        sheds: int = 0,
        requests: int = 0,
    ) -> None:
        """Record one fleet sample from pre-aggregated colocation groups.

        ``groups`` holds one ``(app name, degradation, instances,
        server count)`` row per distinct (pool, profile, instance-count)
        colocation state, in a canonical deterministic order; identical
        servers are scored once and weighted by ``count``. This is the
        struct-of-arrays replacement for :meth:`observe` — the engine
        calls it in-process and sharded alike (as does the test suite's
        per-event reference loop), so the float accumulation order, and
        therefore the rendered SLO series, is identical across them.

        ``sheds``/``requests`` carry the epoch's placement-decision
        tallies (the engine knows them per epoch);
        they accumulate into the open window and feed the alert
        engine's shed-rate signal at window close.
        """
        window_index = max(0, math.ceil(time_s / self.window_s) - 1)
        if self._current is None:
            self._current = window_index
        while window_index > self._current:
            self._close_window()
        self._window_sheds += sheds
        self._window_requests += requests
        colocated = 0
        violated = 0
        worst = 0.0
        total_magnitude = 0.0
        instances_total = 0
        verdicts = self._verdicts
        for app_name, degradation, instances, count in groups:
            colocated += count
            instances_total += instances * count
            verdict = verdicts.get((app_name, degradation))
            if verdict is None:
                tail_model = None
                if self.tail_models is not None:
                    tail_model = self.tail_models.get(app_name)
                    if tail_model is None:
                        raise SchedulingError(
                            f"no tail model for {app_name}"
                        )
                met = self.target.is_met(degradation, tail_model)
                verdict = (
                    met,
                    0.0 if met else self.target.violation_magnitude(
                        degradation, tail_model
                    ),
                )
                verdicts[(app_name, degradation)] = verdict
            met, magnitude = verdict
            if not met:
                violated += count
                worst = max(worst, magnitude)
                total_magnitude += magnitude * count
                self._app_violations[app_name] = (
                    self._app_violations.get(app_name, 0) + count
                )
        stats = ViolationStats(
            colocated_servers=colocated,
            violated_servers=violated,
            worst_magnitude=worst,
            mean_magnitude=(total_magnitude / violated) if violated else 0.0,
        )
        baseline_busy = n_servers * threads_per_server
        gain = (instances_total / baseline_busy) if baseline_busy else 0.0
        self._samples.append((gain, stats))

    def _close_window(self) -> None:
        assert self._current is not None
        drift = (self.audit.close_window()
                 if self.audit is not None else None)
        gains = [gain for gain, _stats in self._samples]
        stats_list = [stats for _gain, stats in self._samples]
        violated = sum(s.violated_servers for s in stats_list)
        magnitudes = sum(
            s.mean_magnitude * s.violated_servers for s in stats_list
        )
        window = SloWindow(
            index=self._current,
            start_s=self._current * self.window_s,
            end_s=(self._current + 1) * self.window_s,
            samples=len(self._samples),
            mean_utilization_gain=(
                sum(gains) / len(gains) if gains else 0.0
            ),
            violations=ViolationStats(
                colocated_servers=sum(
                    s.colocated_servers for s in stats_list
                ),
                violated_servers=violated,
                worst_magnitude=max(
                    (s.worst_magnitude for s in stats_list), default=0.0
                ),
                mean_magnitude=(magnitudes / violated) if violated else 0.0,
            ),
            per_app_violations=tuple(sorted(self._app_violations.items())),
            calibration_drift=drift,
        )
        self._windows.append(window)
        counter("serve.slo.windows").inc()
        gauge("serve.slo.violation_rate").set(window.violations.rate)
        trace.counter_value("serve.slo.violation_rate",
                            window.violations.rate,
                            sim_time_s=window.end_s)
        if drift is not None:
            gauge("serve.audit.drift").set(drift)
            trace.counter_value("serve.audit.drift", drift,
                                sim_time_s=window.end_s)
        if self.alerts is not None:
            signals: dict[str, float] = {
                "violation_rate": window.violations.rate,
                "shed_rate": (
                    self._window_sheds / self._window_requests
                    if self._window_requests else 0.0
                ),
            }
            if drift is not None:
                signals["calibration_drift"] = drift
            self.alerts.observe_window(window.end_s, signals)
        self._current += 1
        self._samples = []
        self._app_violations = {}
        self._window_sheds = 0
        self._window_requests = 0

    def finish(self) -> tuple[SloWindow, ...]:
        """Close the open window and return the full series."""
        if self._current is not None and self._samples:
            self._close_window()
        self._current = None
        return tuple(self._windows)
