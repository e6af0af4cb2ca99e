"""The benchmark's three workloads, driven from outside the program.

``paper``      the experiment runner CLI, ``--all --fast``: one run on an
               empty solve cache (cold), then runs on the cache it wrote
               (warm). The paper's own seed; ``--seed`` does not apply.
``serve-day``  in-process warehouse replay: a fitted predictor, then a
               seeded day of ~1M Poisson arrivals over 100k servers.
``api``        fresh ``serve-api --policy smite --fast`` children. Each is
               sent a seeded stream uniform over all 696 keys (first-touch
               solves, predictor calls, LRU evictions: 696 keys > 512 LRU
               entries), then a closed loop over 32 seeded keys that only
               hit the LRU; the last one also an open loop over them.

Every workload fills an :class:`Outcome`: set-up samples, cold passes,
warm operation times (or per-window round trips), counts of attempted
and failed operations, and (traced) the per-layer summaries of the
processes that did the work. Outputs are checked against ``reference/``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import select
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

WORKLOADS = ("paper", "serve-day", "api")

#: Set-ups per run (serve-day fits, api servers); ``setup_s`` is their
#: median.
SETUP_REPEATS = 3
#: The seed-independent experiments of the smoke-sized paper workload.
SMOKE_IDS = ("table1", "fig2", "fig9")
#: serve-day shape: 4 latency pools x 25k servers, ~1M arrivals a day.
#: With the service's default admission budget (50 ms of decision cost
#: per epoch, 0.05 ms per LRU hit) a 60 s epoch affords its ~700
#: arrivals, so nearly every arrival is placed (0.3% shed at seed 42);
#: 300 s epochs would shed 72% of them unscored.
SERVE_ARRIVALS = 1_000_000
SERVE_SERVERS_PER_APP = 25_000
SERVE_EPOCH_S = 60.0
#: api: requests per connection in each server's cold stream, and the
#: hot keys of its closed loop and of the open loop of Poisson arrivals
#: on one connection. The open loop's latencies are recorded, not gated:
#: on a shared VM its p99 spreads by more than its median run to run.
COLD_REQUESTS_PER_CONN = 2_000
HOT_KEYS = 32
OPEN_LOOP_RATE = 1_000.0
OPEN_LOOP_S = 1.0
#: API loops are cut into windows this long; each window gives one
#: median round trip, so a host stall moves a few windows instead of the
#: whole run.
WINDOW_S = 0.25
#: Open-loop p99 above this marks the server as past its capacity.
LATENCY_LIMIT_MS = 5.0
#: Socket reads and server stops give up after this long (a hang).
IO_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 15.0
#: Problems kept verbatim per run (the rest are only counted).
MAX_PROBLEMS = 20


@dataclass
class Context:
    """One workload run's settings and scratch space."""

    seed: int
    seconds: float
    smoke: bool
    traced: bool
    work: Path
    deadline: float

    def remaining(self) -> float:
        """Seconds left before the run must have ended."""
        return max(1.0, self.deadline - time.perf_counter())

    def fresh(self, prefix: str) -> Path:
        """A new empty directory under the run's scratch space."""
        return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=self.work))

    @property
    def setup_repeats(self) -> int:
        """How many times a run sets up (once when smoke-sized)."""
        return 1 if self.smoke else SETUP_REPEATS


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list[float] = field(default_factory=list)
    cold_s: list[float] = field(default_factory=list)
    #: Warm operation times, or per-window median latencies (API).
    warm_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    summaries: list[dict[str, Any]] = field(default_factory=list)
    client_request_s: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        """Count ``count`` failed operations, keeping the first messages."""
        self.failed += count
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)


# -- statistics ---------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``statistics.quantiles(values, n=4)``, defined for 0 or 1 values."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values: list[float]) -> float:
    """The median, or 0 for no values."""
    return quartiles(values)[1]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100), or 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def record_windows(out: Outcome, samples: list[tuple[float, float]],
                   start: float) -> None:
    """Add the median round trip of each window to ``out.warm_s``.

    ``samples`` are (response time, round trip) pairs. Windows are
    :data:`WINDOW_S` long from ``start``; the partial last one is
    dropped, and a loop shorter than one window is one window.
    """
    if not samples:
        return
    span = max(t for t, _ in samples) - start
    count = int(span / WINDOW_S)
    groups: list[list[float]] = [[] for _ in range(max(count, 1))]
    for t, value in samples:
        index = int((t - start) / WINDOW_S) if count else 0
        if index < len(groups):
            groups[index].append(value)
    out.warm_s.extend(median(group) for group in groups if group)


# -- child processes ----------------------------------------------------


def child_env(cache: Path) -> dict[str, str]:
    """The environment of a child: no ``SMITE_*`` but a fresh cache."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("SMITE_")}
    env["PYTHONPATH"] = str(SRC)
    env["SMITE_CACHE_DIR"] = str(cache)
    return env


def python_command(module: str, args: list[str],
                   spans: Path | None) -> list[str]:
    """``python -m module args``, through ``traced.py`` when tracing."""
    if spans is None:
        return [sys.executable, "-m", module, *args]
    return [sys.executable, str(HERE / "traced.py"), str(spans),
            module, *args]


def run_child(ctx: Context, out: Outcome, tag: str, module: str,
              args: list[str]) -> tuple[float, dict[str, Any] | None] | None:
    """Run one CLI child to completion; returns (seconds, span summary).

    A timeout or a non-zero exit is a failed operation (returns None).
    """
    spans = ctx.work / f"{tag}.spans.json" if ctx.traced else None
    command = python_command(module, args, spans)
    out.attempted += 1
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(ctx.fresh("cache")),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=ctx.remaining(),
        )
    except subprocess.TimeoutExpired:
        out.fail(f"{tag}: timed out")
        return None
    seconds = time.perf_counter() - started
    if done.returncode != 0:
        out.fail(f"{tag}: exit {done.returncode}: "
                 f"{done.stderr.strip()[-300:]}")
        return None
    summary = None
    if spans is not None:
        summary = json.loads(spans.read_text(encoding="utf-8"))
        out.summaries.append(summary)
    return seconds, summary


# -- reference comparison -----------------------------------------------


def json_diff(got: Any, want: Any, path: str = "$") -> list[str]:
    """Differences between two JSON values.

    Strings and other scalars compare exactly; numbers at a relative
    tolerance of 1e-9.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [d for key in want
                for d in json_diff(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in json_diff(g, w, f"{path}[{i}]")]
    numeric = (int, float)
    if isinstance(want, numeric) and not isinstance(want, bool) \
            and isinstance(got, numeric) and not isinstance(got, bool):
        if (math.isnan(want) and math.isnan(got)) or math.isclose(
                got, want, rel_tol=1e-9, abs_tol=1e-12):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def load_reference(name: str) -> Any:
    """One committed reference file."""
    return json.loads((REFERENCE / name).read_text(encoding="utf-8"))


# -- paper --------------------------------------------------------------


_RUNNER = "repro.experiments.runner"


def _paper_run(ctx: Context, out: Outcome, tag: str, cache: Path
               ) -> tuple[float, bytes, dict | None, Path | None] | None:
    """One ``--fast --jobs 1`` pipeline run on ``cache``."""
    result_path = ctx.work / f"{tag}.json"
    ids = list(SMOKE_IDS) if ctx.smoke else ["--all"]
    args = [*ids, "--fast", "--jobs", "1",
            "--cache-dir", str(cache), "--json", str(result_path)]
    report = None
    if ctx.traced:
        report = ctx.work / f"{tag}.report.json"
        args += ["--metrics-out", str(report)]
    ran = run_child(ctx, out, tag, _RUNNER, args)
    if ran is None:
        return None
    seconds, summary = ran
    return seconds, result_path.read_bytes(), summary, report


def cross_check(summary: dict[str, Any], report_path: Path, *,
                warm: bool) -> list[str]:
    """Compare the wrappers' counts with the runner's own run report."""
    metrics = json.loads(report_path.read_text(encoding="utf-8"))["metrics"]
    counters = metrics["counters"]
    seen = summary["layers"]

    def mine(layer: str, key: str = "calls") -> float:
        return seen.get(layer, {}).get(key, 0)

    pairs = [
        ("scalar solves", mine("smt.solver"),
         counters.get("smt.solver.solves", 0)),
        ("batch calls", mine("smt.batch"), counters.get("smt.batch.calls", 0)),
        ("batch problems", mine("smt.batch", "problems"),
         counters.get("smt.batch.problems", 0)),
        ("disk-cache requests", mine("smt.diskcache.get"),
         counters.get("smt.diskcache.requests", 0)),
        ("disk-cache hits", mine("smt.diskcache.get", "hits"),
         counters.get("smt.diskcache.hits", 0)),
    ]
    problems = [f"{what}: wrappers saw {ours}, run report {theirs}"
                for what, ours, theirs in pairs if ours != theirs]
    if warm:
        if mine("smt.solver") or mine("smt.batch"):
            problems.append("warm run solved: "
                            f"{mine('smt.solver')} scalar, "
                            f"{mine('smt.batch')} batch calls")
        if mine("smt.diskcache.get", "hits") != mine("smt.diskcache.get"):
            problems.append("warm run missed the disk cache")
    elif mine("smt.solver"):
        timed = metrics["histograms"].get(
            "smt.solver.solve_seconds", {}).get("sum", 0.0)
        ours = mine("smt.solver", "self_s")
        if not math.isclose(ours, timed, rel_tol=0.05):
            problems.append(f"smt.solver self time {ours:.3f}s is not "
                            f"within 5% of solve_seconds {timed:.3f}s")
    return problems


def _paper_start(ctx: Context, out: Outcome, tag: str) -> None:
    """One set-up sample: a runner start that only lists the experiments."""
    ran = run_child(ctx, out, f"{tag}-list", _RUNNER, ["--list"])
    if ran is not None:
        out.setup_s.append(ran[0])


def paper(ctx: Context, out: Outcome) -> None:
    """The paper pipeline CLI, cold once, then warm.

    A set-up sample precedes each pipeline run and follows the last one,
    so that the samples spread over the whole run.
    """
    reference = load_reference("paper.json")
    if ctx.smoke:
        reference = {eid: reference[eid] for eid in SMOKE_IDS}
    cache = ctx.fresh("paper-cache")
    _paper_start(ctx, out, "paper-cold")
    cold = _paper_run(ctx, out, "paper-cold", cache)
    if cold is None:
        return
    seconds, cold_bytes, summary, report = cold
    out.cold_s.append(seconds)
    differences = json_diff(json.loads(cold_bytes), reference)
    if differences:
        out.fail(f"paper-cold: {len(differences)} differences from "
                 f"reference/paper.json, first {differences[0]}")
    if summary is not None:
        for problem in cross_check(summary, report, warm=False):
            out.fail(f"paper-cold cross-check: {problem}")
    measured = 0.0
    runs = 0
    while measured < ctx.seconds:
        _paper_start(ctx, out, f"paper-warm{runs}")
        warm = _paper_run(ctx, out, f"paper-warm{runs}", cache)
        runs += 1
        if warm is None:
            return
        seconds, warm_bytes, summary, report = warm
        measured += seconds
        out.warm_s.append(seconds)
        if warm_bytes != cold_bytes:
            out.fail(f"paper-warm{runs - 1}: output differs from the "
                     f"cold run's")
        if summary is not None:
            for problem in cross_check(summary, report, warm=True):
                out.fail(f"paper-warm cross-check: {problem}")
    _paper_start(ctx, out, "paper-end")


# -- serve-day ----------------------------------------------------------


def _serve_setup(ctx: Context):
    """Fit the predictor and generate the seeded day (the timed set-up)."""
    from repro.core.predictor import SMiTe
    from repro.serve import traffic
    from repro.smt.diskcache import PersistentSolveCache
    from repro.smt.params import SANDY_BRIDGE_EN
    from repro.smt.simulator import Simulator
    from repro.workloads.spec import spec_even, spec_odd

    arrivals = SERVE_ARRIVALS // 50 if ctx.smoke else SERVE_ARRIVALS
    simulator = Simulator(SANDY_BRIDGE_EN, disk_cache=PersistentSolveCache(
        ctx.fresh("serve-cache")))
    predictor = SMiTe(simulator).fit(spec_odd()[:6], mode="smt")
    predictor.fit_server(spec_odd()[:6], instance_counts=(1, 3, 6))
    trace = traffic.poisson_trace(
        spec_even()[:6], rate_per_s=arrivals / 86_400.0,
        horizon_s=86_400.0, seed=ctx.seed,
    )
    return predictor, trace


def _serve_replay(ctx: Context, predictor, trace):
    """One replay through a fresh service and engine; (seconds, outcome)."""
    from repro.scheduler.qos import QosTarget
    from repro.serve.engine import ServingEngine
    from repro.serve.service import PredictionService
    from repro.serve.slo import WindowedSlo
    from repro.workloads.cloudsuite import cloudsuite_apps

    servers = SERVE_SERVERS_PER_APP // 50 if ctx.smoke \
        else SERVE_SERVERS_PER_APP
    target = QosTarget.average(0.95)
    # Start every replay from the same collector state; what the last
    # replay left behind is not this replay's cost.
    gc.collect()
    started = time.perf_counter()
    engine = ServingEngine(
        predictor.simulator, cloudsuite_apps(),
        PredictionService(predictor, target),
        servers_per_app=servers, epoch_s=SERVE_EPOCH_S, window_s=3_600.0,
        slo=WindowedSlo(3_600.0, target),
    )
    outcome = engine.replay(trace)
    return time.perf_counter() - started, outcome


_EVENT_COLUMNS = ("time_s", "kind", "job_id", "profile_idx", "app_idx",
                  "server", "placement", "instances_after")


def _event_fingerprint(events) -> str:
    """A cheap digest of a replay's event table, for rep-to-rep checks."""
    digest = hashlib.sha256()
    for name in _EVENT_COLUMNS:
        column = getattr(events, name)
        digest.update(column.astype("<f8" if name == "time_s"
                                    else "<i8").tobytes())
    digest.update("\n".join((*events.profiles, *events.apps)).encode())
    return digest.hexdigest()


def _event_log_sha256(events) -> str:
    """sha256 of ``ReplayOutcome.event_log()``, rendered in chunks.

    Rendering a warehouse day's ~2M lines at once would add hundreds of
    MB to the process's peak RSS, which ``peak_rss_mb`` measures.
    """
    from repro.serve.events import EventTable

    digest = hashlib.sha256()
    step = 100_000
    for start in range(0, len(events), step):
        lines = EventTable(
            **{name: getattr(events, name)[start:start + step]
               for name in _EVENT_COLUMNS},
            profiles=events.profiles, apps=events.apps,
        ).render_lines()
        if start:
            digest.update(b"\n")
        digest.update("\n".join(lines).encode())
    return digest.hexdigest()


def serve_books(outcome, *, with_log: bool) -> dict[str, Any]:
    """A replay's books; ``with_log`` adds the event log's sha256."""
    books = {
        "arrivals": outcome.arrivals,
        "departures": outcome.departures,
        "still_placed": outcome.still_placed,
        "colocated_placed": outcome.colocated_placed,
        "baseline_placed": outcome.baseline_placed,
        "shed": outcome.shed,
        "events": len(outcome.events),
        "mean_utilization_gain": outcome.mean_utilization_gain,
        "mean_violation_rate": outcome.mean_violation_rate,
        "fingerprint": _event_fingerprint(outcome.events),
    }
    if with_log:
        books["event_log_sha256"] = _event_log_sha256(outcome.events)
    return books


def serve_day(ctx: Context, out: Outcome) -> None:
    """Set up three times; replay the last set-up's day cold, then warm.

    Each set-up fits a predictor on a fresh solve cache and generates the
    day. The first replay of the last one is the cold pass; warm replays
    follow until the measuring time is spent. Every replay of the seeded
    day must produce the same books.
    """
    from repro.errors import ReproError

    reference = load_reference("serve_day.json")
    check_reference = not ctx.smoke and ctx.seed == reference["seed"]
    first = None

    def replay(tag: str, cold: bool) -> float | None:
        nonlocal first
        out.attempted += 1
        try:
            seconds, outcome = _serve_replay(ctx, predictor, trace)
        except ReproError as exc:
            out.fail(f"serve-day {tag}: {exc}")
            return None
        books = serve_books(outcome, with_log=first is None
                            and check_reference)
        if first is None:
            first = books
            out.details["books"] = books
            if check_reference:
                differences = json_diff(
                    {k: books[k] for k in reference["books"]},
                    reference["books"])
                if differences:
                    out.fail(f"serve-day: differs from reference/"
                             f"serve_day.json: {differences[0]}")
        elif books != {k: first[k] for k in books}:
            out.fail(f"serve-day {tag}: books differ from the first replay")
        (out.cold_s if cold else out.warm_s).append(seconds)
        return seconds

    for _ in range(ctx.setup_repeats):
        started = time.perf_counter()
        predictor, trace = _serve_setup(ctx)
        out.setup_s.append(time.perf_counter() - started)
    if replay("cold", cold=True) is None:
        return
    measured = 0.0
    replays = 0
    while measured < ctx.seconds:
        seconds = replay(f"replay {replays}", cold=False)
        if seconds is None:
            return
        measured += seconds
        replays += 1


# -- API clients --------------------------------------------------------


class Conn:
    """One connection speaking the API's length-prefixed JSON frames."""

    def __init__(self, address: tuple[str, int],
                 timeout: float = IO_TIMEOUT_S) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def __enter__(self) -> "Conn":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Close the socket."""
        self.sock.close()

    def fileno(self) -> int:
        """The socket's descriptor, for ``select``."""
        return self.sock.fileno()

    def send(self, message: dict[str, Any]) -> None:
        """Write one request frame."""
        payload = json.dumps(message, separators=(",", ":")).encode()
        self.sock.sendall(len(payload).to_bytes(4, "big") + payload)

    def fill(self) -> None:
        """Read what the socket holds (blocks until something arrives)."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def frames(self) -> list[dict[str, Any]]:
        """Every complete response frame received so far."""
        frames = []
        while len(self._buffer) >= 4:
            end = 4 + int.from_bytes(self._buffer[:4], "big")
            if len(self._buffer) < end:
                break
            frames.append(json.loads(bytes(self._buffer[4:end])))
            del self._buffer[:end]
        return frames

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """Send one request and wait for its (only) response."""
        self.send(message)
        while True:
            frames = self.frames()
            if frames:
                return frames[0]
            self.fill()


def place_message(key: str, request_id: int) -> dict[str, Any]:
    """The ``place`` request for a table key ``app|batch|max_instances``."""
    app, batch, count = key.split("|")
    return {"v": 1, "id": request_id, "op": "place", "latency_app": app,
            "batch": batch, "max_instances": int(count)}


def check_answer(response: dict[str, Any], key: str, request_id: int,
                 table: dict[str, int], *, cached: bool) -> str | None:
    """Why a ``place`` response is wrong, or None when it is right."""
    if response.get("id") != request_id:
        return f"response id {response.get('id')!r} for {request_id}"
    if not response.get("ok"):
        return f"error {response.get('error', {}).get('code')}"
    result = response.get("result", {})
    if result.get("shed"):
        return "shed"
    if result.get("max_safe_instances") != table[key]:
        return (f"{key}: {result.get('max_safe_instances')} safe instances,"
                f" expected {table[key]}")
    if cached and not result.get("cached"):
        return f"{key}: not answered from the LRU"
    return None


class Server:
    """One ``repro.cli serve-api --policy smite --fast`` child process.

    Construction spawns the child on solve cache ``cache`` (a fresh one by
    default) and waits for its ``listening on`` banner; with ``timed``
    that interval is one set-up sample. :meth:`stop` asks it to drain
    with the ``shutdown`` op and kills it if it hangs.
    """

    def __init__(self, ctx: Context, out: Outcome, tag: str, *,
                 cache: Path | None = None, timed: bool = True) -> None:
        self.out = out
        self.tag = tag
        self.spans = ctx.work / f"{tag}.spans.json" if ctx.traced else None
        self.address: tuple[str, int] | None = None
        command = python_command(
            "repro.cli", ["serve-api", "--policy", "smite", "--fast"],
            self.spans)
        out.attempted += 1
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(cache or ctx.fresh("api-cache")),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.address = self._banner(started + ctx.remaining())
        except (OSError, ValueError) as exc:
            out.fail(f"{tag}: no listening banner: {exc}")
            self._kill()
            return
        if timed:
            out.setup_s.append(time.perf_counter() - started)

    def _banner(self, deadline: float) -> tuple[str, int]:
        while True:
            wait = deadline - time.perf_counter()
            if wait <= 0 or not select.select([self.proc.stdout], [], [],
                                              wait)[0]:
                raise TimeoutError("timed out")
            line = self.proc.stdout.readline()
            if not line:
                raise ValueError(f"exited with {self.proc.wait()}")
            if line.startswith("listening on "):
                host, _, port = line.split()[-1].rpartition(":")
                return host, int(port)

    def _kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def stop(self) -> None:
        """Drain through ``shutdown``; a hang or dirty exit is a failure."""
        if self.address is None:
            return
        drained = False
        try:
            with Conn(self.address, timeout=STOP_TIMEOUT_S) as conn:
                drained = bool(conn.request(
                    {"v": 1, "id": "stop", "op": "shutdown"}).get("ok"))
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, ValueError, subprocess.TimeoutExpired) as exc:
            self.out.fail(f"{self.tag}: shutdown hung or failed: {exc!r}")
            self._kill()
            return
        self.proc.stdout.close()
        if not drained or self.proc.returncode != 0:
            self.out.fail(f"{self.tag}: exit {self.proc.returncode} after "
                          f"shutdown")
            return
        if self.spans is not None:
            self.out.summaries.append(
                json.loads(self.spans.read_text(encoding="utf-8")))


def _readable(conns: list[Conn], timeout: float) -> list[Conn]:
    return select.select(conns, [], [], max(0.0, timeout))[0]


def closed_loop(ctx: Context, out: Outcome, address: tuple[str, int],
                streams: list[list[str]], table: dict[str, int], *,
                cached: bool, until: float | None = None) -> tuple[
                    float, float, list[tuple[float, float]]]:
    """One connection per stream, each with one request in flight.

    A single thread drives every connection: it sends a connection's
    next request as soon as the previous response arrives. With
    ``until`` each connection cycles its stream until that clock time;
    otherwise it sends its stream once. Returns the start time, the
    elapsed time, and each response's (arrival time, round trip).
    """
    samples: list[tuple[float, float]] = []
    with ExitStack() as stack:
        conns = [stack.enter_context(Conn(address)) for _ in streams]
        sent_at = [0.0] * len(conns)
        position = [0] * len(conns)

        def send_next(k: int) -> bool:
            i = position[k]
            if (i >= len(streams[k])) if until is None \
                    else (time.perf_counter() >= until):
                return False
            sent_at[k] = time.perf_counter()
            conns[k].send(place_message(streams[k][i % len(streams[k])], i))
            return True

        started = time.perf_counter()
        active = [conns[k] for k in range(len(conns)) if send_next(k)]
        try:
            while active:
                ready = _readable(active, IO_TIMEOUT_S)
                if not ready:
                    out.fail(f"closed loop: {len(active)} connections hung",
                             len(active))
                    break
                for conn in ready:
                    conn.fill()
                    now = time.perf_counter()
                    k = conns.index(conn)
                    for response in conn.frames():
                        i = position[k]
                        samples.append((now, now - sent_at[k]))
                        out.attempted += 1
                        wrong = check_answer(
                            response, streams[k][i % len(streams[k])], i,
                            table, cached=cached)
                        if wrong is not None:
                            out.fail(f"closed loop: {wrong}")
                        position[k] += 1
                        if not send_next(k):
                            active.remove(conn)
        except (OSError, ValueError) as exc:
            out.fail(f"closed loop: connection failed: {exc!r}")
        elapsed = time.perf_counter() - started
    out.client_request_s += sum(rtt for _, rtt in samples)
    return started, elapsed, samples


def open_loop(ctx: Context, out: Outcome, address: tuple[str, int],
              keys: list[str], table: dict[str, int], rng: random.Random,
              duration: float) -> None:
    """Poisson arrivals at :data:`OPEN_LOOP_RATE` on one connection.

    A single thread sends each request when it falls due and reads
    responses while it waits. Latency runs from each request's due time,
    so a stalled sender charges its delay to every request queued behind
    it; how late the sender ran is recorded too.
    """
    n = max(1, int(OPEN_LOOP_RATE * duration))
    offsets: list[float] = []
    at = 0.0
    for _ in range(n):
        at += rng.expovariate(OPEN_LOOP_RATE)
        offsets.append(at)
    chosen = [rng.choice(keys) for _ in range(n)]
    latency: list[tuple[float, float]] = []
    lateness: list[float] = []
    received = 0
    with Conn(address) as conn:
        start = time.perf_counter()
        due = [start + offset for offset in offsets]
        sent = 0
        try:
            while received < n:
                now = time.perf_counter()
                if sent < n and now >= due[sent]:
                    lateness.append(now - due[sent])
                    conn.send(place_message(chosen[sent], sent))
                    sent += 1
                    continue
                wait = due[sent] - now if sent < n else IO_TIMEOUT_S
                if not _readable([conn], wait):
                    if sent >= n:
                        break
                    continue
                conn.fill()
                now = time.perf_counter()
                for response in conn.frames():
                    request_id = response.get("id")
                    if not isinstance(request_id, int) \
                            or not 0 <= request_id < sent:
                        out.fail(f"open loop: unexpected response id "
                                 f"{request_id!r}")
                        continue
                    received += 1
                    latency.append((due[request_id], now - due[request_id]))
                    wrong = check_answer(response, chosen[request_id],
                                         request_id, table, cached=True)
                    if wrong is not None:
                        out.fail(f"open loop: {wrong}")
        except (OSError, ValueError) as exc:
            out.fail(f"open loop: connection failed: {exc!r}")
    out.attempted += n
    if received < n:
        out.fail(f"open loop: {n - received} of {n} responses missing",
                 n - received)
    values = [value for _, value in latency]
    out.client_request_s += sum(values)
    p99_ms = percentile(values, 99.0) * 1e3
    out.details["open_loop"] = {
        "requests": n, "rate_per_s": OPEN_LOOP_RATE,
        "p50_ms": percentile(values, 50.0) * 1e3,
        "p99_ms": p99_ms,
        "within_limit": p99_ms <= LATENCY_LIMIT_MS,
        "sender_late_p50_ms": percentile(lateness, 50.0) * 1e3,
        "sender_late_p99_ms": percentile(lateness, 99.0) * 1e3,
    }


def _api_table() -> dict[str, int]:
    return load_reference("api_table.json")["max_safe_instances"]


def _touch(out: Outcome, server: Server, keys: list[str],
           table: dict[str, int]) -> None:
    """Send each key once on one connection, checking every answer."""
    with Conn(server.address) as conn:
        for i, key in enumerate(keys):
            out.attempted += 1
            wrong = check_answer(conn.request(place_message(key, i)), key, i,
                                 table, cached=False)
            if wrong is not None:
                out.fail(f"{server.tag} touch: {wrong}")


def api(ctx: Context, out: Outcome) -> None:
    """Fresh servers: a cold stream over all 696 keys, then 32 hot keys.

    Each server starts on a fresh solve cache (a set-up sample) and
    answers a seeded closed-loop stream of 2 x
    :data:`COLD_REQUESTS_PER_CONN` requests uniform over all keys (a cold
    pass). It then gets each hot key once, untimed, and runs its share of
    the measuring time as a closed loop over the hot keys, every answer
    from the LRU. The open loop runs on the last server.
    """
    table = _api_table()
    keys = sorted(table)
    rng = random.Random(ctx.seed)
    hot = rng.sample(keys, HOT_KEYS)
    loops = [rng.sample(hot, len(hot)) for _ in range(2)]
    per_conn = COLD_REQUESTS_PER_CONN // 20 if ctx.smoke \
        else COLD_REQUESTS_PER_CONN
    servers = ctx.setup_repeats
    for rep in range(servers):
        streams = [[rng.choice(keys) for _ in range(per_conn)]
                   for _ in range(2)]
        server = Server(ctx, out, f"api{rep}")
        if server.address is None:
            continue
        try:
            _, cold, _ = closed_loop(ctx, out, server.address, streams,
                                     table, cached=False)
            out.cold_s.append(cold)
            _touch(out, server, hot, table)
            started, _, samples = closed_loop(
                ctx, out, server.address, loops, table, cached=True,
                until=time.perf_counter() + ctx.seconds / servers)
            record_windows(out, samples, started)
            if rep == servers - 1:
                open_loop(ctx, out, server.address, hot, table, rng,
                          OPEN_LOOP_S / 10 if ctx.smoke else OPEN_LOOP_S)
        except OSError as exc:
            out.fail(f"api{rep}: {exc!r}")
        finally:
            server.stop()


RUNNERS: dict[str, Callable[[Context, Outcome], None]] = {
    "paper": paper,
    "serve-day": serve_day,
    "api": api,
}


def run_workload(name: str, ctx: Context) -> Outcome:
    """Run one workload; with ``ctx.traced``, in-process layers too."""
    out = Outcome()
    patched = None
    recorder = None
    if ctx.traced and name == "serve-day":
        recorder = layers.Recorder()
        patched = layers.install(recorder)
    try:
        RUNNERS[name](ctx, out)
    finally:
        if recorder is not None:
            recorder.stop()
            layers.uninstall(patched)
            out.summaries.append(recorder.summary())
    return out


# -- references ---------------------------------------------------------


def write_references(ctx: Context) -> None:
    """Recompute every file under ``reference/`` at this commit."""
    from repro.workloads.cloudsuite import CLOUDSUITE
    from repro.workloads.spec import spec_even, spec_odd

    out = Outcome()
    REFERENCE.mkdir(exist_ok=True)
    ran = _paper_run(ctx, out, "ref-paper", ctx.fresh("ref-cache"))
    if ran is None:
        raise SystemExit(f"paper run failed: {out.problems}")
    (REFERENCE / "paper.json").write_bytes(ran[1])

    seed = 42
    serve_ctx = Context(seed=seed, seconds=0.0, smoke=False, traced=False,
                        work=ctx.work, deadline=ctx.deadline)
    predictor, trace = _serve_setup(serve_ctx)
    _, outcome = _serve_replay(serve_ctx, predictor, trace)
    books = serve_books(outcome, with_log=True)
    del books["fingerprint"]
    _write_json(REFERENCE / "serve_day.json", {"seed": seed, "books": books})

    batches = sorted(p.name for p in (*spec_even(), *spec_odd()))
    keys = [f"{app}|{batch}|{count}" for app in sorted(CLOUDSUITE)
            for batch in batches for count in range(1, 7)]
    server = Server(ctx, out, "ref-api")
    table: dict[str, int] = {}
    try:
        with Conn(server.address) as conn:
            for i, key in enumerate(keys):
                response = conn.request(place_message(key, i))
                result = response.get("result", {})
                if not response.get("ok") or result.get("shed"):
                    raise SystemExit(f"{key}: {response}")
                table[key] = result["max_safe_instances"]
    finally:
        server.stop()
    _write_json(REFERENCE / "api_table.json",
                {"model": "serve-api --policy smite --fast",
                 "max_safe_instances": table})
    if out.failed:
        raise SystemExit(f"reference run failed: {out.problems}")


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
