"""Live telemetry: a bounded-ring, mergeable metric time series.

The registry (:mod:`repro.obs.registry`) answers "what happened over the
whole run"; this module answers "what is happening *now*". A
:class:`TelemetrySeries` records frames — point-in-time samples of
selected counters, gauges, histogram percentiles, and alert states — at
a fixed cadence on whatever clock the caller drives it with: the
simulated event clock for replays (the engine ticks it at epoch
boundaries), the wall clock for the network API server.

Frames follow the registry's merge discipline so shard series fold
correctly: counter channels hold *cumulative* totals and add across
processes, gauge channels keep the last value set, and frames from
different workers sampled at the same tick fold into one frame. Two
replays of the same trace therefore produce byte-identical merged
series with or without sharding — the parity tests
compare the JSON dumps directly.

Like the tracer, sampling is opt-in through a module-global series
(:func:`install` / ``--telemetry-out`` / ``SMITE_TELEMETRY_OUT``); when
no series is installed the per-epoch hook is a single ``None`` check.

Exports: :func:`write_jsonl` (one frame per line, tailed by
``repro.cli obs top``) and :func:`write_openmetrics`
(OpenMetrics/Prometheus text, picked for ``.prom``/``.om`` paths).
"""

from __future__ import annotations

import json
import math
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs.registry import MetricsRegistry, counter, get_registry

__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_INTERVAL_S",
    "ENV_TELEMETRY_INTERVAL",
    "ENV_TELEMETRY_LIMIT",
    "ENV_TELEMETRY_OUT",
    "TelemetrySeries",
    "active",
    "env_telemetry_path",
    "install",
    "is_active",
    "load_jsonl",
    "maybe_install_env_sampler",
    "maybe_sample",
    "maybe_write_env_telemetry",
    "render_top",
    "sampling",
    "sparkline",
    "uninstall",
    "write_jsonl",
    "write_openmetrics",
    "write_telemetry",
]

#: Environment variable naming the telemetry export path; when set,
#: ``repro.cli`` (and ``scripts/overhead_gate.py``) install a sampler at
#: startup and write the series on exit, exactly like ``SMITE_TRACE_OUT``.
ENV_TELEMETRY_OUT = "SMITE_TELEMETRY_OUT"
#: Optional override of the sampling cadence in (sim or wall) seconds.
ENV_TELEMETRY_INTERVAL = "SMITE_TELEMETRY_INTERVAL"
#: Optional override of the frame ring capacity.
ENV_TELEMETRY_LIMIT = "SMITE_TELEMETRY_LIMIT"

#: Default cadence: one frame per serving epoch at the default epoch
#: width, and a sane wall-clock default for the API server.
DEFAULT_INTERVAL_S = 300.0
#: Frames kept in the bounded ring; a day-long replay at the default
#: cadence emits 288, so the default never drops in practice.
DEFAULT_CAPACITY = 10_000

#: File suffixes exported as OpenMetrics/Prometheus text instead of JSONL.
_OPENMETRICS_SUFFIXES = (".prom", ".om", ".openmetrics")


class TelemetrySeries:
    """A bounded, mergeable ring of telemetry frames.

    A frame is ``{"t": sample time, "counters": {...}, "gauges": {...},
    "alerts": {...}}``. Counter channels are cumulative (deltas are a
    view, :meth:`deltas`), gauge and alert channels are point-in-time.
    Tracked registry instruments (:meth:`track_counter` and friends) are
    read at every sample; callers layer run-specific channels on top
    through the ``counters=``/``gauges=`` arguments of :meth:`sample`.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        capacity: int = DEFAULT_CAPACITY,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if interval_s <= 0.0:
            raise ValueError(
                f"telemetry interval must be positive, got {interval_s}"
            )
        if capacity < 1:
            raise ValueError(
                f"telemetry capacity must be >= 1, got {capacity}"
            )
        self.interval_s = float(interval_s)
        self.capacity = int(capacity)
        self._registry = registry
        self._frames: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._counter_tracks: list[str] = []
        self._gauge_tracks: list[str] = []
        self._pct_tracks: list[tuple[str, float]] = []
        self._next_due = self.interval_s
        self._drained = 0
        self.emitted = 0
        self.dropped = 0

    # -- channel selection ---------------------------------------------

    def track_counter(self, name: str) -> None:
        """Read registry counter ``name`` into every frame (cumulative)."""
        if name not in self._counter_tracks:
            self._counter_tracks.append(name)

    def track_gauge(self, name: str) -> None:
        """Read registry gauge ``name`` into every frame (skipped while
        unset)."""
        if name not in self._gauge_tracks:
            self._gauge_tracks.append(name)

    def track_percentile(self, name: str, p: float) -> None:
        """Read the ``p``-th percentile of registry histogram ``name``
        into every frame as the gauge channel ``{name}.p{p}``."""
        key = (name, float(p))
        if key not in self._pct_tracks:
            self._pct_tracks.append(key)

    # -- sampling -------------------------------------------------------

    def peek(
        self,
        time_s: float,
        *,
        counters: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
        alerts: Mapping[str, float] | None = None,
    ) -> dict[str, Any]:
        """Build (but do not record) the frame :meth:`sample` would add."""
        registry = self._registry or get_registry()
        frame_counters: dict[str, float] = {}
        frame_gauges: dict[str, float] = {}
        for name in self._counter_tracks:
            frame_counters[name] = float(registry.counter(name).value)
        for name in self._gauge_tracks:
            value = registry.gauge(name).value
            if value is not None:
                frame_gauges[name] = float(value)
        for name, p in self._pct_tracks:
            hist = registry.histogram(name)
            if hist.count:
                frame_gauges[f"{name}.p{p:g}"] = float(hist.percentile(p))
        if counters:
            frame_counters.update(
                (name, float(value)) for name, value in counters.items()
            )
        if gauges:
            frame_gauges.update(
                (name, float(value)) for name, value in gauges.items()
            )
        return {
            "t": float(time_s),
            "counters": frame_counters,
            "gauges": frame_gauges,
            "alerts": (
                {name: float(state) for name, state in alerts.items()}
                if alerts else {}
            ),
        }

    def sample(
        self,
        time_s: float,
        *,
        counters: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
        alerts: Mapping[str, float] | None = None,
    ) -> dict[str, Any]:
        """Record one frame at ``time_s`` and return it."""
        frame = self.peek(
            time_s, counters=counters, gauges=gauges, alerts=alerts,
        )
        with self._lock:
            self._append(frame)
            self.emitted += 1
        counter("serve.telemetry.samples").inc()
        return frame

    def maybe_sample(
        self,
        time_s: float,
        *,
        counters: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
        alerts: Mapping[str, float] | None = None,
    ) -> dict[str, Any] | None:
        """Record a frame when ``time_s`` crosses the cadence grid.

        The caller ticks this at every natural boundary of its clock
        (epoch ends on the simulated clock); a frame is recorded when
        the tick reaches the next multiple of :attr:`interval_s`, so
        in-process and sharded replays sample at identical times.
        """
        if time_s + 1e-9 < self._next_due:
            return None
        self._next_due = self.interval_s * (
            math.floor(time_s / self.interval_s + 1e-9) + 1
        )
        return self.sample(
            time_s, counters=counters, gauges=gauges, alerts=alerts,
        )

    def _append(self, frame: dict[str, Any]) -> None:
        # Frames arrive in nondecreasing time order from any one
        # process; an equal-time frame folds instead of appending.
        if self._frames and self._frames[-1]["t"] == frame["t"]:
            _fold_frame(self._frames[-1], frame)
            return
        self._frames.append(frame)
        while len(self._frames) > self.capacity:
            self._frames.pop(0)
            self.dropped += 1
            self._drained = max(0, self._drained - 1)

    # -- views ----------------------------------------------------------

    @property
    def frames(self) -> tuple[dict[str, Any], ...]:
        with self._lock:
            return tuple(self._frames)

    def tail(self, n: int) -> list[dict[str, Any]]:
        """The most recent ``n`` frames (the `metrics` API op's view)."""
        with self._lock:
            return [dict(f) for f in self._frames[-n:]]

    def drain_new(self) -> list[dict[str, Any]]:
        """Frames recorded since the last drain (for pipe streaming).

        Frames stay in the ring for local export; the drain cursor only
        marks what has already been shipped to a parent process.
        """
        with self._lock:
            fresh = self._frames[self._drained:]
            self._drained = len(self._frames)
            return [dict(f) for f in fresh]

    def deltas(self) -> list[dict[str, Any]]:
        """Per-frame view with counter channels as successive deltas."""
        out: list[dict[str, Any]] = []
        previous: dict[str, float] = {}
        for frame in self.frames:
            row = dict(frame)
            row["counters"] = {
                name: value - previous.get(name, 0.0)
                for name, value in frame["counters"].items()
            }
            previous = frame["counters"]
            out.append(row)
        return out

    # -- merge discipline ----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able dict another series (or file) can merge/load."""
        with self._lock:
            return {
                "interval_s": self.interval_s,
                "emitted": self.emitted,
                "dropped": self.dropped,
                "frames": [dict(f) for f in self._frames],
            }

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Fold a snapshot in: frames sharing a sample time combine
        (counters add, gauges and alert states last-set wins), others
        interleave by time. Mirrors the registry's merge semantics so a
        shard's series folds into the parent's without double counting.
        """
        incoming = snap.get("frames", [])
        if not incoming:
            return
        with self._lock:
            by_time = {frame["t"]: frame for frame in self._frames}
            for frame in incoming:
                mine = by_time.get(frame["t"])
                if mine is not None:
                    _fold_frame(mine, frame)
                    continue
                copy = {
                    "t": float(frame["t"]),
                    "counters": dict(frame.get("counters", {})),
                    "gauges": dict(frame.get("gauges", {})),
                    "alerts": dict(frame.get("alerts", {})),
                }
                by_time[copy["t"]] = copy
                self._frames.append(copy)
                self.emitted += 1
            self._frames.sort(key=lambda f: f["t"])
            while len(self._frames) > self.capacity:
                self._frames.pop(0)
                self.dropped += 1
                self._drained = max(0, self._drained - 1)


def _fold_frame(mine: dict[str, Any], theirs: Mapping[str, Any]) -> None:
    for name, value in theirs.get("counters", {}).items():
        mine["counters"][name] = (
            mine["counters"].get(name, 0.0) + float(value)
        )
    mine["gauges"].update(theirs.get("gauges", {}))
    mine["alerts"].update(theirs.get("alerts", {}))


# -- the module-global sampler -----------------------------------------

_ACTIVE: TelemetrySeries | None = None
_STATE_LOCK = threading.Lock()


def _track_default(series: TelemetrySeries) -> None:
    """The standard serving selection: every channel here is updated at
    the same clock points in-process and sharded, so sampled series
    stay byte-identical across them."""
    series.track_counter("serve.slo.windows")
    series.track_counter("serve.alert.firings")
    series.track_counter("serve.alert.resolves")
    series.track_gauge("serve.engine.running")
    series.track_gauge("serve.slo.violation_rate")
    series.track_gauge("serve.audit.drift")
    series.track_gauge("serve.adapt.model_version")
    series.track_gauge("serve.alert.active")
    series.track_gauge("serve.api.queue_depth")
    series.track_percentile("serve.api.batch_occupancy", 95.0)


def install(
    interval_s: float = DEFAULT_INTERVAL_S,
    capacity: int = DEFAULT_CAPACITY,
    *,
    track_default: bool = True,
) -> TelemetrySeries:
    """Install the process-wide telemetry series and return it."""
    global _ACTIVE
    series = TelemetrySeries(interval_s, capacity)
    if track_default:
        _track_default(series)
    with _STATE_LOCK:
        _ACTIVE = series
    return series


def uninstall() -> TelemetrySeries | None:
    """Remove and return the installed series (None when absent)."""
    global _ACTIVE
    with _STATE_LOCK:
        series, _ACTIVE = _ACTIVE, None
    return series


def active() -> TelemetrySeries | None:
    """The installed process-wide series, or None when sampling is off."""
    return _ACTIVE


def is_active() -> bool:
    """Whether a process-wide telemetry series is installed."""
    return _ACTIVE is not None


def maybe_sample(
    time_s: float,
    *,
    counters: Mapping[str, float] | None = None,
    gauges: Mapping[str, float] | None = None,
    alerts: Mapping[str, float] | None = None,
) -> dict[str, Any] | None:
    """Cadence-gated sample on the installed series; no-op when off."""
    series = _ACTIVE
    if series is None:
        return None
    return series.maybe_sample(
        time_s, counters=counters, gauges=gauges, alerts=alerts,
    )


@contextmanager
def sampling(
    interval_s: float = DEFAULT_INTERVAL_S,
    capacity: int = DEFAULT_CAPACITY,
) -> Iterator[TelemetrySeries]:
    """Scoped installation, for tests and library callers."""
    series = install(interval_s, capacity)
    try:
        yield series
    finally:
        uninstall()


# -- environment plumbing ----------------------------------------------

def env_telemetry_path() -> Path | None:
    """The SMITE_TELEMETRY_OUT destination, or None when unset."""
    raw = os.environ.get(ENV_TELEMETRY_OUT, "").strip()
    return Path(raw) if raw else None


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def maybe_install_env_sampler() -> bool:
    """Install a sampler when ``SMITE_TELEMETRY_OUT`` is set; idempotent."""
    if env_telemetry_path() is None or is_active():
        return False
    install(
        _env_float(ENV_TELEMETRY_INTERVAL, DEFAULT_INTERVAL_S),
        int(_env_float(ENV_TELEMETRY_LIMIT, DEFAULT_CAPACITY)),
    )
    return True


def maybe_write_env_telemetry() -> Path | None:
    """Uninstall the env-installed sampler and export it, if any."""
    path = env_telemetry_path()
    if path is None:
        return None
    series = uninstall()
    if series is None:
        return None
    write_telemetry(path, series)
    return path


# -- export -------------------------------------------------------------

def write_telemetry(path: str | Path, series: TelemetrySeries) -> Path:
    """Export by suffix: ``.prom``/``.om`` get OpenMetrics text, anything
    else the JSONL stream ``obs top`` tails."""
    path = Path(path)
    if path.suffix.lower() in _OPENMETRICS_SUFFIXES:
        return write_openmetrics(path, series)
    return write_jsonl(path, series)


def write_jsonl(path: str | Path, series: TelemetrySeries) -> Path:
    """One meta line, then one JSON frame per line (tailable)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    snap = series.snapshot()
    with path.open("w", encoding="utf-8") as fh:
        meta = {
            "meta": {
                "version": 1,
                "interval_s": snap["interval_s"],
                "emitted": snap["emitted"],
                "dropped": snap["dropped"],
            }
        }
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for frame in snap["frames"]:
            fh.write(json.dumps(frame, sort_keys=True) + "\n")
    return path


def load_jsonl(path: str | Path) -> dict[str, Any]:
    """Read a JSONL export (or tail-in-progress) back to a snapshot."""
    frames: list[dict[str, Any]] = []
    meta: dict[str, Any] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # a partially written tail line
            if "meta" in row:
                meta = row["meta"]
            elif "t" in row:
                frames.append(row)
    return {
        "interval_s": meta.get("interval_s", DEFAULT_INTERVAL_S),
        "emitted": meta.get("emitted", len(frames)),
        "dropped": meta.get("dropped", 0),
        "frames": frames,
    }


def _metric_name(name: str) -> str:
    out = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return "smite_" + out.strip("_")


def write_openmetrics(path: str | Path, series: TelemetrySeries) -> Path:
    """OpenMetrics / Prometheus text exposition of the whole series.

    Counter channels render as ``<name>_total`` with per-frame
    timestamps; gauge channels as gauges; alert states as the labelled
    ``smite_alert_firing`` gauge family (1 while firing).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    frames = series.snapshot()["frames"]
    counters: dict[str, list[tuple[float, float]]] = {}
    gauges: dict[str, list[tuple[float, float]]] = {}
    alerts: dict[str, list[tuple[float, float]]] = {}
    for frame in frames:
        t = frame["t"]
        for name, value in frame.get("counters", {}).items():
            counters.setdefault(name, []).append((t, value))
        for name, value in frame.get("gauges", {}).items():
            gauges.setdefault(name, []).append((t, value))
        for name, state in frame.get("alerts", {}).items():
            alerts.setdefault(name, []).append((t, state))
    lines: list[str] = []
    for name in sorted(counters):
        family = _metric_name(name)
        lines.append(f"# TYPE {family} counter")
        lines.append(f"# HELP {family} cumulative total of {name}")
        for t, value in counters[name]:
            lines.append(f"{family}_total {value:g} {t:.3f}")
    for name in sorted(gauges):
        family = _metric_name(name)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"# HELP {family} point-in-time value of {name}")
        for t, value in gauges[name]:
            lines.append(f"{family} {value:g} {t:.3f}")
    if alerts:
        lines.append("# TYPE smite_alert_firing gauge")
        lines.append(
            "# HELP smite_alert_firing 1 while the alert rule is firing"
        )
        for name in sorted(alerts):
            for t, state in alerts[name]:
                lines.append(
                    f'smite_alert_firing{{rule="{name}"}} '
                    f"{state:g} {t:.3f}"
                )
    lines.append("# EOF")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# -- terminal rendering (repro.cli obs top) -----------------------------

_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 24) -> str:
    """Render the last ``width`` values as a unicode sparkline."""
    if not values:
        return ""
    tail_values = values[-width:]
    lo, hi = min(tail_values), max(tail_values)
    if hi <= lo:
        return _SPARK[0] * len(tail_values)
    top = len(_SPARK) - 1
    return "".join(
        _SPARK[int((v - lo) / (hi - lo) * top)] for v in tail_values
    )


def render_top(snap: Mapping[str, Any], *, width: int = 24) -> str:
    """The ``obs top`` view of a telemetry snapshot: one sparkline row
    per counter rate and gauge, one state row per alert rule."""
    frames = list(snap.get("frames", []))
    interval = float(snap.get("interval_s", DEFAULT_INTERVAL_S))
    lines = [
        f"telemetry: {len(frames)} frame(s) @ {interval:g}s cadence"
        + (
            f", t in [{frames[0]['t']:g}, {frames[-1]['t']:g}]"
            if frames else ""
        )
    ]
    if not frames:
        lines.append("  (no frames yet)")
        return "\n".join(lines)
    counter_names = sorted(
        {name for f in frames for name in f.get("counters", {})}
    )
    gauge_names = sorted(
        {name for f in frames for name in f.get("gauges", {})}
    )
    alert_names = sorted(
        {name for f in frames for name in f.get("alerts", {})}
    )
    label_w = max(
        (len(n) for n in counter_names + gauge_names + alert_names),
        default=0,
    )
    for name in counter_names:
        series: list[float] = []
        previous = 0.0
        for frame in frames:
            value = float(frame.get("counters", {}).get(name, previous))
            series.append(max(0.0, value - previous))
            previous = value
        lines.append(
            f"  rate  {name:<{label_w}} {sparkline(series, width):<{width}}"
            f" last {series[-1]:g}/frame total {previous:g}"
        )
    for name in gauge_names:
        series = []
        last = 0.0
        for frame in frames:
            last = float(frame.get("gauges", {}).get(name, last))
            series.append(last)
        lines.append(
            f"  gauge {name:<{label_w}} {sparkline(series, width):<{width}}"
            f" last {series[-1]:g}"
        )
    for name in alert_names:
        fired = resolved = 0
        state = 0.0
        for frame in frames:
            value = frame.get("alerts", {}).get(name)
            if value is None:
                continue
            value = float(value)
            if value > 0.0 and state <= 0.0:
                fired += 1
            if value <= 0.0 and state > 0.0:
                resolved += 1
            state = value
        status = "FIRING" if state > 0.0 else "ok"
        lines.append(
            f"  alert {name:<{label_w}} {status:<{width}}"
            f" fired {fired}x resolved {resolved}x"
        )
    return "\n".join(lines)
