"""Opt-in structured tracing: a bounded event ring, exported as Chrome JSON.

Metrics (:mod:`repro.obs.registry`) answer *how much*; a trace answers
*when*. When tracing is installed, :func:`~repro.obs.spans.span` and
:func:`~repro.obs.spans.time_histogram` emit begin/end events, the
serving engine drops decision markers and counter instants on the
*simulated* event clock, and the whole stream lands in one bounded ring
buffer (:class:`Tracer`). The buffer is exported in the Chrome
trace-event format — ``chrome://tracing`` and Perfetto load the file
directly — with two tracks: ``wall-clock`` (``perf_counter`` time) and
``simulated-clock`` (the serve runtime's event time).

Tracing is off by default and must cost ~nothing when off: every
emission site performs one module-global read and a ``None`` check
before doing any work. The ring is bounded (200k events); once full,
the oldest events are dropped and the drop count is recorded in the
export's ``otherData`` so a truncated trace is never mistaken for a
complete one.

Enable it with ``--trace-out PATH`` on ``repro.cli serve`` or the
experiment runner, or by setting ``SMITE_TRACE_OUT=PATH``; both arm it
through :func:`repro.obs.report.recording`.

Every event name must resolve against :mod:`repro.obs.catalog` — span
events use span leaves, counter instants use counter names, and marker
names are cataloged under the dedicated ``trace`` kind — so the lint
catalog-parity family (SMT201/SMT202) covers trace emission sites too.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "DEFAULT_CAPACITY",
    "ENV_TRACE_OUT",
    "TraceEvent",
    "Tracer",
    "active",
    "counter_value",
    "install",
    "instant",
    "render_trace_summary",
    "top_events",
    "uninstall",
    "write_chrome_trace",
]

ENV_TRACE_OUT = "SMITE_TRACE_OUT"

#: Ring capacity of an installed tracer. 200k events is ~2 simulated
#: days of serve markers and a few tens of MB of JSON — big enough to be
#: useful, small enough that an always-on tracer cannot exhaust memory.
DEFAULT_CAPACITY = 200_000

#: Chrome trace ``pid`` values; each pid renders as one named track.
WALL_TRACK = 1
SIM_TRACK = 2

_TRACK_NAMES = {WALL_TRACK: "wall-clock", SIM_TRACK: "simulated-clock"}


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace event in Chrome trace-event terms.

    ``ph`` is the Chrome phase: ``B``/``E`` bracket a span, ``i`` is an
    instant marker, ``C`` a counter sample. ``ts_us`` is microseconds on
    the event's track clock (wall time since tracer install for
    :data:`WALL_TRACK`, simulated seconds for :data:`SIM_TRACK`).
    """

    name: str
    ph: str
    ts_us: float
    tid: int
    pid: int = WALL_TRACK
    args: Mapping[str, Any] = field(default_factory=dict)

    def as_chrome(self) -> dict[str, Any]:
        """Render as one Chrome trace-event dict."""
        event: dict[str, Any] = {
            "name": self.name,
            "ph": self.ph,
            "ts": self.ts_us,
            "pid": self.pid,
            "tid": self.tid,
            "cat": "smite",
        }
        if self.ph == "i":
            event["s"] = "t"  # thread-scoped instant
        if self.args:
            event["args"] = dict(self.args)
        return event


class Tracer:
    """A bounded, thread-safe ring buffer of trace events.

    The hot emission path stores bare ``(name, ph, ts_us, pid, tid,
    args)`` tuples — building a :class:`TraceEvent` per emission costs
    more than the ring append itself, so objects are only materialized
    when :meth:`events` is read.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.emitted = 0
        self._ring: deque[tuple] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    # -- emission ------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    def _push(self, record: tuple) -> None:
        with self._lock:
            self.emitted += 1
            self._ring.append(record)

    def begin(self, name: str, args: Mapping[str, Any] | None = None) -> None:
        """Open a wall-clock span (Chrome ``B`` phase)."""
        self._push((name, "B", self._now_us(), WALL_TRACK,
                    threading.get_ident(), args))

    def end(self, name: str, args: Mapping[str, Any] | None = None) -> None:
        """Close the innermost wall-clock span of ``name`` (``E`` phase)."""
        self._push((name, "E", self._now_us(), WALL_TRACK,
                    threading.get_ident(), args))

    def instant(
        self,
        name: str,
        args: Mapping[str, Any] | None = None,
        *,
        sim_time_s: float | None = None,
    ) -> None:
        """Drop one marker; on the simulated track when a time is given."""
        if sim_time_s is None:
            ts_us, pid = self._now_us(), WALL_TRACK
        else:
            ts_us, pid = sim_time_s * 1e6, SIM_TRACK
        self._push((name, "i", ts_us, pid, threading.get_ident(), args))

    def counter_value(
        self,
        name: str,
        value: float,
        *,
        sim_time_s: float | None = None,
    ) -> None:
        """Sample one counter/gauge value (Chrome ``C`` phase)."""
        if sim_time_s is None:
            ts_us, pid = self._now_us(), WALL_TRACK
        else:
            ts_us, pid = sim_time_s * 1e6, SIM_TRACK
        self._push((name, "C", ts_us, pid, threading.get_ident(),
                    {"value": float(value)}))

    # -- inspection ----------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound (oldest-first)."""
        with self._lock:
            return self.emitted - len(self._ring)

    def events(self) -> tuple[TraceEvent, ...]:
        """A point-in-time copy of the buffered events, oldest first."""
        with self._lock:
            records = tuple(self._ring)
        return tuple(
            TraceEvent(name=name, ph=ph, ts_us=ts_us, pid=pid, tid=tid,
                       args=args or {})
            for name, ph, ts_us, pid, tid, args in records
        )

    def chrome_trace(self) -> dict[str, Any]:
        """The full buffer as a Chrome trace-event JSON object."""
        events = self.events()
        trace_events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": label}}
            for pid, label in sorted(_TRACK_NAMES.items())
        ]
        trace_events.extend(event.as_chrome() for event in events)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.trace",
                "capacity": self.capacity,
                "emitted": self.emitted,
                "dropped": self.emitted - len(events),
            },
        }


# ----------------------------------------------------------------------
# The process-wide active tracer. Emission sites read the global once;
# when it is None (the default) they return immediately.

_ACTIVE: Tracer | None = None
_STATE_LOCK = threading.Lock()


def active() -> Tracer | None:
    """The installed tracer, or None when tracing is off."""
    return _ACTIVE


def install() -> Tracer:
    """Install (and return) a fresh process-wide tracer."""
    global _ACTIVE
    with _STATE_LOCK:
        _ACTIVE = Tracer()
        return _ACTIVE


def uninstall() -> Tracer | None:
    """Remove the active tracer, returning it for export."""
    global _ACTIVE
    with _STATE_LOCK:
        tracer, _ACTIVE = _ACTIVE, None
        return tracer


def instant(
    name: str,
    args: Mapping[str, Any] | None = None,
    *,
    sim_time_s: float | None = None,
) -> None:
    """Emit a marker on the active tracer; a no-op when tracing is off."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, args, sim_time_s=sim_time_s)


def counter_value(
    name: str,
    value: float,
    *,
    sim_time_s: float | None = None,
) -> None:
    """Sample a counter on the active tracer; a no-op when tracing is off."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.counter_value(name, value, sim_time_s=sim_time_s)


# ----------------------------------------------------------------------
# Export

def write_chrome_trace(path: str | Path, tracer: Tracer) -> Path:
    """Serialize one tracer's buffer to ``path`` as Chrome trace JSON."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.chrome_trace(), indent=1) + "\n",
                    encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# Reading traces back (repro.cli obs trace)

def top_events(
    trace_doc: Mapping[str, Any], limit: int = 10,
) -> list[tuple[str, str, float, float]]:
    """(name, track, start_ms, duration_ms) of the longest events.

    Durations come from matching ``B``/``E`` pairs per thread (spans) and
    from explicit ``X`` complete events; markers and counter samples have
    no duration and are skipped.
    """
    stacks: dict[tuple[int, int], list[tuple[str, float]]] = {}
    durations: list[tuple[str, str, float, float]] = []
    for event in trace_doc.get("traceEvents", []):
        ph = event.get("ph")
        key = (event.get("pid", 0), event.get("tid", 0))
        track = _TRACK_NAMES.get(event.get("pid", 0), str(event.get("pid")))
        if ph == "B":
            stacks.setdefault(key, []).append(
                (event["name"], float(event["ts"]))
            )
        elif ph == "E":
            stack = stacks.get(key)
            if stack:
                name, started = stack.pop()
                durations.append(
                    (name, track, started / 1e3,
                     (float(event["ts"]) - started) / 1e3)
                )
        elif ph == "X":
            durations.append(
                (event["name"], track, float(event["ts"]) / 1e3,
                 float(event.get("dur", 0.0)) / 1e3)
            )
    durations.sort(key=lambda row: -row[3])
    return durations[:limit]


def render_trace_summary(
    trace_doc: Mapping[str, Any], *, limit: int = 10,
) -> str:
    """The ``repro.cli obs trace`` text view: longest events first."""
    rows = top_events(trace_doc, limit)
    other = trace_doc.get("otherData", {})
    events = trace_doc.get("traceEvents", [])
    spans = [f"{len(events)} events"
             f" ({other.get('dropped', 0)} dropped by the ring bound)"]
    if not rows:
        spans.append("no span events to rank (markers/samples only)")
        return "\n".join(spans)
    width = max(len(name) for name, _, _, _ in rows)
    spans.append(f"top {len(rows)} longest events:")
    spans.extend(
        f"  {name:<{width}}  {duration_ms:>12.3f} ms  "
        f"at {start_ms:.3f} ms  [{track}]"
        for name, track, start_ms, duration_ms in rows
    )
    return "\n".join(spans)

