#!/usr/bin/env python
"""Trace/telemetry overhead gate: arming a recorder may cost at most 5%.

Replays one seeded serving day (a diurnal trace of SPEC batch arrivals
placed onto two CloudSuite pools by the SMiTe prediction service) in
child processes of three kinds: plain, with ``SMITE_TRACE_OUT`` armed,
and with ``SMITE_TELEMETRY_OUT`` armed. Each child fits the predictor
outside the timed region, replays once to warm its caches and reports
the best of three timed replays. One replay takes ~15 ms, so each kind
runs in three children, interleaved with the others, and keeps its
best: a stall on a shared machine cannot decide the gate on its own.
The gate exits 1 when an armed kind runs more than 5% below the plain
one in events/s, or when an armed child writes no output file:
recording is only useful if it is cheap enough to leave on.

Usage::

    python scripts/overhead_gate.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"

#: An armed replay may run at most this much below the plain one.
OVERHEAD_ALLOWED = 0.05
ROUNDS = 3
CHILDREN = 3
#: (name, variable that arms it, output file); a child inherits none of
#: these variables unless it is the one being armed.
_ARMED = (("trace", "SMITE_TRACE_OUT", "replay.trace.json"),
          ("telemetry", "SMITE_TELEMETRY_OUT", "replay.telemetry.jsonl"))
_CHILD = ("import sys; sys.path[:0] = [{src!r}, {scripts!r}]; "
          "import overhead_gate; overhead_gate.measure()")


def measure() -> None:
    """Child process: print the replay's event count and best seconds."""
    from repro.core.predictor import SMiTe
    from repro.obs.report import recording
    from repro.scheduler.qos import QosTarget
    from repro.serve.engine import ServingEngine
    from repro.serve.service import PredictionService
    from repro.serve.slo import WindowedSlo
    from repro.serve.traffic import diurnal_trace
    from repro.smt.params import SANDY_BRIDGE_EN
    from repro.smt.simulator import Simulator
    from repro.workloads.cloudsuite import cloudsuite_apps
    from repro.workloads.spec import spec_even, spec_odd

    with recording():
        predictor = SMiTe(Simulator(SANDY_BRIDGE_EN)).fit(
            spec_odd()[:6], mode="smt")
        predictor.fit_server(spec_odd()[:6], instance_counts=(1, 3, 6))
        arrivals = diurnal_trace(spec_even()[:4], mean_rate_per_s=0.05,
                                 seed=42)
        apps = cloudsuite_apps()[:2]
        target = QosTarget.average(0.95)

        def timed_replay() -> tuple[float, int]:
            engine = ServingEngine(
                predictor.simulator, apps,
                PredictionService(predictor, target),
                servers_per_app=4, epoch_s=300.0, window_s=3_600.0,
                slo=WindowedSlo(3_600.0, target),
            )
            started = time.perf_counter()
            outcome = engine.replay(arrivals)
            return time.perf_counter() - started, len(outcome.events)

        timed_replay()  # warm-up: first-touch solves and memos
        seconds, events = min(timed_replay() for _ in range(ROUNDS))
    print(json.dumps({"events": events, "seconds": seconds}))


def _events_per_s(workdir: str, armed: dict[str, str]) -> float:
    """Run :func:`measure` in a fresh interpreter; its events/s."""
    recorders = {variable for _name, variable, _file in _ARMED}
    env = {name: value for name, value in os.environ.items()
           if name not in recorders}
    env["SMITE_NO_CACHE"] = "1"  # every child solves the same way
    env.update(armed)
    code = _CHILD.format(src=str(REPO / "src"), scripts=str(SCRIPTS))
    done = subprocess.run([sys.executable, "-c", code], cwd=workdir,
                          env=env, capture_output=True, text=True,
                          check=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["events"] / result["seconds"]


def main() -> int:
    best: dict[str, float] = {}
    silent: set[str] = set()
    with tempfile.TemporaryDirectory(prefix="overhead_gate_") as tmp:
        for _ in range(CHILDREN):
            best["plain"] = max(best.get("plain", 0.0),
                                _events_per_s(tmp, {}))
            for name, variable, filename in _ARMED:
                out = Path(tmp) / filename
                out.unlink(missing_ok=True)
                rate = _events_per_s(tmp, {variable: str(out)})
                best[name] = max(best.get(name, 0.0), rate)
                if not out.exists():
                    silent.add(name)
    plain = best["plain"]
    floor = (1.0 - OVERHEAD_ALLOWED) * plain
    print(f"plain replay: {plain:.0f} events/s (floor {floor:.0f} events/s)")
    failed = False
    for name, variable, _filename in _ARMED:
        print(f"{name}: {best[name]:.0f} events/s armed")
        if name in silent:
            print(f"FAIL: a {name} run wrote no file "
                  f"({variable} plumbing is broken)", file=sys.stderr)
            failed = True
        elif best[name] < floor:
            print(f"FAIL: {name} costs {1.0 - best[name] / plain:.1%} of "
                  f"replay throughput (> {OVERHEAD_ALLOWED:.0%} allowed)",
                  file=sys.stderr)
            failed = True
        else:
            print(f"OK: {name} overhead within {OVERHEAD_ALLOWED:.0%}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
