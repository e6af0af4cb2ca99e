"""Asyncio front-end: micro-batching prediction server with backpressure.

:class:`ApiServer` turns any :class:`~repro.serve.service.Decider` into a
network service speaking the length-prefixed JSON protocol of
:mod:`repro.serve.api.protocol`. Three serving-side mechanisms mirror
the in-process :class:`~repro.serve.service.PredictionService` design:

1. **Micro-batching** — concurrent in-flight ``place``/``predict``
   requests land in one pending queue; a single batcher task drains up
   to ``max_batch`` of them at a time and announces the whole batch to
   the decider via :meth:`Decider.begin_epoch` before deciding, so every
   simulator solve a batch of cache misses needs goes through one
   batched prefetch (the same epoch-prefetch path the replay engine
   uses). A batch of ``place`` requests the decider can answer from
   its LRU alone (:meth:`Decider.decide_cached`) is decided on the
   event loop; every other batch runs on an executor thread. While a
   batch is being decided, newly arriving requests accumulate — batch
   occupancy grows with offered load instead of per-request overhead.
2. **Backpressure** — the pending queue is bounded (``queue_bound``).
   A request that would overflow it is answered *immediately* with a
   429-style ``overloaded`` error carrying a deterministic
   ``retry_after_ms`` hint and, for ``place``, the shed-to-baseline
   fallback answer (``max_safe_instances: 0``), so an overloaded server
   degrades to the no-co-location baseline instead of collapsing into
   an unbounded queue. A second, deterministic shed layer lives inside
   :class:`PredictionService` itself: its admission-control budget can
   shed individual decisions within an accepted batch.
3. **Graceful drain** — :meth:`drain` stops accepting work, answers
   everything already queued, flushes responses, and only then closes
   connections; a ``shutdown`` request (or ``max_requests``) triggers
   the same path from the wire.

:func:`run_api_shards` fans the same server out across worker
processes (the ``--shards``/``--jobs`` machinery): each worker serves
its own port and obs registry, and the parent folds worker metric
snapshots back through :func:`repro.obs.merge` so QPS, batch-occupancy,
queue-depth, and shed-rate metrics aggregate exactly like the replay
engine's shard metrics do.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from multiprocessing.connection import wait as _pipe_wait
from typing import Any, Callable, Iterator

from repro import obs
from repro.errors import ConfigurationError, ReproError, SchedulingError
from repro.obs import counter, diff_snapshots, gauge, histogram, span
from repro.obs import timeseries
from repro.obs.alerts import AlertEngine, queue_saturation_rule
from repro.serve.api.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ApiProtocolError,
    E_DRAINING,
    E_INTERNAL,
    E_OVERLOADED,
    E_UNKNOWN_WORKLOAD,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
    validate_request,
)
from repro.serve.service import Decider, Decision
from repro.workloads.cloudsuite import CLOUDSUITE, LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile
from repro.workloads.registry import get_profile

__all__ = ["ApiServer", "run_api_shards"]

#: Fallback answer embedded in an ``overloaded`` response to a ``place``
#: request: the no-co-location baseline, exactly what the admission
#: controller's shed path answers in-process.
_BASELINE_FALLBACK = {"max_safe_instances": 0, "shed": True,
                      "cached": False}


@dataclass
class _Pending:
    """One queued decision request awaiting its micro-batch."""

    op: str
    app: LatencySensitiveWorkload
    profile: WorkloadProfile
    count: int
    request_id: Any
    future: "asyncio.Future[dict[str, Any]]"


class ApiServer:
    """One TCP endpoint answering prediction/placement queries.

    The server is created idle; :meth:`start` binds the socket inside a
    running event loop, :meth:`serve_until_stopped` blocks until a drain
    completes, and :meth:`background` packages both into a thread for
    synchronous callers (tests, docs snippets).
    """

    def __init__(
        self,
        decider: Decider,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        queue_bound: int = 256,
        batch_window_s: float = 0.0,
        retry_after_ms: float = 50.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_requests: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if queue_bound < 1:
            raise ConfigurationError(
                f"queue_bound must be >= 1, got {queue_bound}"
            )
        if batch_window_s < 0.0:
            raise ConfigurationError("batch_window_s must be >= 0")
        if retry_after_ms < 0.0:
            raise ConfigurationError("retry_after_ms must be >= 0")
        if max_requests is not None and max_requests < 1:
            raise ConfigurationError(
                f"max_requests must be >= 1, got {max_requests}"
            )
        self.decider = decider
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.queue_bound = queue_bound
        self.batch_window_s = batch_window_s
        self.retry_after_ms = retry_after_ms
        self.max_frame_bytes = max_frame_bytes
        self.max_requests = max_requests
        self._pending: deque[_Pending] = deque()
        self._writers: dict[asyncio.StreamWriter, None] = {}
        self._response_tasks: dict["asyncio.Task[None]", None] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._batcher: "asyncio.Task[None] | None" = None
        self._wake: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._address: tuple[str, int] | None = None
        self._draining = False
        self._drain_started = False
        self._drain_task: "asyncio.Task[None] | None" = None
        self._connection_tasks: dict["asyncio.Task[None]", None] = {}
        self._in_flight = False
        self._requests = 0
        self._sheds = 0
        self._batches = 0
        self._connections = 0
        # Wall-clock telemetry: bound to the installed module-global
        # series (if any) at start(); ticks are counted so the sample
        # times land on the same interval grid in every shard worker.
        self._telemetry: timeseries.TelemetrySeries | None = None
        self._telemetry_task: "asyncio.Task[None] | None" = None
        self._telemetry_tick = 0
        self._alerts: AlertEngine | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; available after :meth:`start`."""
        if self._address is None:
            raise ReproError("ApiServer.start() has not run yet")
        return self._address

    @property
    def requests_served(self) -> int:
        """Valid requests answered so far (any op, shed included)."""
        return self._requests

    async def start(self) -> tuple[str, int]:
        """Bind the listening socket and start the batcher task."""
        if self._server is not None:
            raise ReproError("ApiServer.start() called twice")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._batcher = self._loop.create_task(self._batch_loop())
        self._telemetry = timeseries.active()
        if self._telemetry is not None:
            self._alerts = AlertEngine((queue_saturation_rule(),))
            self._telemetry_task = self._loop.create_task(
                self._telemetry_loop()
            )
        return self._address

    async def serve_until_stopped(self) -> None:
        """Block until a drain (shutdown op, max_requests, or explicit)."""
        if self._stopped is None:
            raise ReproError("ApiServer.start() has not run yet")
        await self._stopped.wait()
        if self._drain_task is not None:
            # The drain sets the stop event as its last step; finish it
            # here so no task outlives the loop.
            await self._drain_task

    async def drain(self) -> None:
        """Graceful shutdown: answer queued work, flush, then close.

        New ``place``/``predict`` requests arriving during the drain are
        answered with a ``draining`` error; everything already queued is
        decided and its response written before connections close.
        Idempotent: concurrent calls wait for the first to finish.
        """
        if self._stopped is None or self._stopped.is_set():
            return
        if self._drain_started:
            await self._stopped.wait()
            return
        self._drain_started = True
        self._draining = True
        if self._server is not None:
            self._server.close()
        while self._pending or self._in_flight:
            self._wake.set()
            await asyncio.sleep(0.002)
        while self._response_tasks:
            await asyncio.sleep(0.002)
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            with suppress(asyncio.CancelledError):
                await self._telemetry_task
            # One closing frame so a short-lived server still exports
            # its totals even when it never reached a cadence boundary.
            self._telemetry_tick += 1
            self._sample_telemetry(
                self._telemetry_tick * self._telemetry.interval_s
            )
        for writer in list(self._writers):
            writer.close()
        if self._connection_tasks:
            # Closed transports end every handler's read; let them exit
            # before the loop can close under them.
            await asyncio.gather(*self._connection_tasks,
                                 return_exceptions=True)
        if self._server is not None:
            try:
                await self._server.wait_closed()
            except (OSError, ConnectionResetError):  # pragma: no cover
                pass
        self._stopped.set()

    @contextmanager
    def background(self, *, timeout_s: float = 60.0
                   ) -> Iterator[tuple[str, int]]:
        """Run the server on a dedicated thread; yield its address.

        The context body runs while the server accepts connections; on
        exit the server drains gracefully and the thread joins. This is
        the synchronous entry point used by tests and the docs
        snippets.
        """
        ready = threading.Event()
        failures: list[BaseException] = []
        loop = asyncio.new_event_loop()
        # Held while the exit path schedules onto the loop and while the
        # runner retires it, so a drain request lands on an open loop or
        # not at all — never on one that is closing.
        loop_guard = threading.Lock()
        loop_open = [True]

        def _runner() -> None:
            asyncio.set_event_loop(loop)

            async def _main() -> None:
                try:
                    await self.start()
                finally:
                    ready.set()
                await self.serve_until_stopped()

            try:
                loop.run_until_complete(_main())
            except BaseException as exc:  # surfaced to the caller below
                failures.append(exc)
                ready.set()
            finally:
                with loop_guard:
                    loop_open[0] = False
                asyncio.set_event_loop(None)
                loop.close()

        thread = threading.Thread(target=_runner, daemon=True,
                                  name="smite-api-server")
        thread.start()
        if not ready.wait(timeout_s):  # pragma: no cover
            raise ReproError("ApiServer failed to start in time")
        if failures:
            raise failures[0]
        try:
            yield self.address
        finally:
            # A server that already stopped (shutdown op, max_requests)
            # ignores the request; one that is running drains, and the
            # runner thread exits once the drain task is done.
            with loop_guard:
                if loop_open[0]:
                    loop.call_soon_threadsafe(self._begin_drain)
            thread.join(timeout_s)
            if thread.is_alive():  # pragma: no cover
                raise ReproError("ApiServer did not drain in time")
            if failures:  # pragma: no cover
                raise failures[0]

    # -- connection handling -------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    message: dict[str, Any]) -> None:
        """Write one response frame, tolerating a vanished client."""
        if writer.is_closing():
            return
        try:
            # Responses are server-controlled and small; never let a
            # tightened request-side frame limit stop an error response
            # (e.g. the frame_too_large answer itself) from going out.
            limit = max(self.max_frame_bytes, MAX_FRAME_BYTES)
            writer.write(encode_frame(message, max_frame_bytes=limit))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        counter("serve.api.connections").inc()
        self._connections += 1
        self._writers[writer] = None
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks[task] = None
        try:
            while True:
                try:
                    message = await read_frame(
                        reader, max_frame_bytes=self.max_frame_bytes,
                    )
                except ApiProtocolError as exc:
                    counter("serve.api.protocol_errors").inc()
                    await self._send(
                        writer, error_response(None, exc.code, str(exc)),
                    )
                    break  # framing broke; the stream is unusable
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # clean or mid-frame disconnect
                await self._handle_message(writer, message)
        finally:
            self._writers.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._connection_tasks.pop(task, None)

    async def _handle_message(self, writer: asyncio.StreamWriter,
                              message: dict[str, Any]) -> None:
        raw_id = message.get("id")
        request_id = raw_id if isinstance(raw_id, (str, int)) else None
        try:
            op, fields = validate_request(message)
        except ApiProtocolError as exc:
            counter("serve.api.protocol_errors").inc()
            await self._send(
                writer, error_response(request_id, exc.code, str(exc)),
            )
            return
        counter("serve.api.requests").inc()
        self._requests += 1
        if op == "ping":
            await self._send(writer, ok_response(
                request_id, {"pong": True, "protocol": PROTOCOL_VERSION},
            ))
        elif op == "stats":
            await self._send(writer, ok_response(request_id, self._stats()))
        elif op == "metrics":
            await self._send(writer, ok_response(request_id,
                                                 self._metrics()))
        elif op == "shutdown":
            await self._send(writer, ok_response(request_id,
                                                 {"stopping": True}))
            self._begin_drain()
        else:
            await self._enqueue(writer, op, fields, request_id)
        if self.max_requests is not None \
                and self._requests >= self.max_requests:
            self._begin_drain()

    def _begin_drain(self) -> None:
        if self._drain_task is None and not self._drain_started \
                and self._loop is not None:
            # Flip the flag synchronously so a request pipelined right
            # behind the one that triggered the drain is already
            # rejected, even before the drain task gets scheduled.
            self._draining = True
            self._drain_task = self._loop.create_task(self.drain())

    def _resolve(
        self, app_name: str, batch_name: str,
    ) -> tuple[LatencySensitiveWorkload, WorkloadProfile]:
        app = CLOUDSUITE.get(app_name)
        if app is None:
            raise ApiProtocolError(
                E_UNKNOWN_WORKLOAD,
                f"unknown latency app {app_name!r}; "
                f"known: {', '.join(CLOUDSUITE)}",
            )
        try:
            profile = get_profile(batch_name)
        except ReproError:
            raise ApiProtocolError(
                E_UNKNOWN_WORKLOAD,
                f"unknown batch workload {batch_name!r}",
            ) from None
        return app, profile

    async def _enqueue(self, writer: asyncio.StreamWriter, op: str,
                       fields: dict[str, Any], request_id: Any) -> None:
        if self._draining:
            await self._send(writer, error_response(
                request_id, E_DRAINING,
                "server is draining; no new work accepted",
            ))
            return
        try:
            app, profile = self._resolve(fields["latency_app"],
                                         fields["batch"])
        except ApiProtocolError as exc:
            await self._send(
                writer, error_response(request_id, exc.code, str(exc)),
            )
            return
        if len(self._pending) >= self.queue_bound:
            counter("serve.api.sheds").inc()
            self._sheds += 1
            fallback = dict(_BASELINE_FALLBACK) if op == "place" else None
            await self._send(writer, error_response(
                request_id, E_OVERLOADED,
                f"decision queue is full ({self.queue_bound} pending); "
                "retry after the hint or fall back to the baseline",
                retry_after_ms=self.retry_after_ms, result=fallback,
            ))
            return
        count = fields["max_instances"] if op == "place" \
            else fields["instances"]
        future: "asyncio.Future[dict[str, Any]]" = self._loop.create_future()
        self._pending.append(
            _Pending(op, app, profile, count, request_id, future)
        )
        self._wake.set()
        task = self._loop.create_task(self._respond_later(writer, future))
        self._response_tasks[task] = None
        task.add_done_callback(
            lambda done: self._response_tasks.pop(done, None)
        )

    async def _respond_later(self, writer: asyncio.StreamWriter,
                             future: "asyncio.Future[dict[str, Any]]"
                             ) -> None:
        await self._send(writer, await future)

    # -- micro-batching ------------------------------------------------

    async def _batch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self.batch_window_s > 0.0:
                # Linger briefly so a burst in flight coalesces into one
                # batch instead of racing the first arrival.
                await asyncio.sleep(self.batch_window_s)
            while self._pending:
                depth = len(self._pending)
                gauge("serve.api.queue_depth").set(depth)
                take = min(self.max_batch, depth)
                items = [self._pending.popleft() for _ in range(take)]
                self._in_flight = True
                try:
                    with span("serve.api.batch"):
                        # A batch the decider answers from memory alone
                        # is decided right here. Anything else goes off
                        # the loop: begin_epoch can miss the LRU and fall
                        # through to the disk cache, and a cold solve
                        # would stall every open connection.
                        if self._decide_on_loop(items):
                            counter("serve.api.loop_batches").inc()
                        else:
                            await self._loop.run_in_executor(
                                None, self._run_batch, items)
                finally:
                    self._in_flight = False
                counter("serve.api.batches").inc()
                self._batches += 1
                histogram("serve.api.batch_occupancy").record(take)
                # Yield so connection readers can enqueue the next burst
                # and response writers can flush.
                await asyncio.sleep(0)

    def _decide_on_loop(self, items: list[_Pending]) -> bool:
        """Answer an all-``place`` batch from the decider's memory.

        Returns False, having touched nothing, when the batch holds
        another op or the decider declines (a cache miss, a budget that
        might shed, or a decider without a memory-only path); the caller
        then hops to :meth:`_run_batch` on the executor.
        """
        if any(item.op != "place" for item in items):
            return False
        try:
            decisions = self.decider.decide_cached(
                [(item.app, item.profile, item.count) for item in items]
            )
        except Exception as exc:  # pragma: no cover - defensive
            _fail_all(items, exc)
            return True
        if decisions is None:
            return False
        for item, decision in zip(items, decisions):
            if not item.future.done():
                item.future.set_result(
                    ok_response(item.request_id, _place_result(decision))
                )
        return True

    def _run_batch(self, items: list[_Pending]) -> None:
        """Decide one micro-batch through the epoch-prefetch path."""
        candidates = [(item.app, item.profile, item.count)
                      for item in items]
        try:
            self.decider.begin_epoch(candidates)
        except Exception as exc:  # pragma: no cover - defensive
            _fail_all(items, exc)
            return
        for item in items:
            try:
                if item.op == "place":
                    result = _place_result(self.decider.decide(
                        item.app, item.profile, max_instances=item.count,
                    ))
                else:
                    predicted = self.decider.predicted_degradation(
                        item.app, item.profile, item.count,
                    )
                    result = {
                        "predicted_degradation":
                            None if predicted is None else float(predicted),
                    }
                response = ok_response(item.request_id, result)
            except Exception as exc:
                response = error_response(
                    item.request_id, E_INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                )
            if not item.future.done():
                item.future.set_result(response)

    # -- wall-clock telemetry ------------------------------------------

    async def _telemetry_loop(self) -> None:
        """Sample the telemetry series once per interval (wall clock).

        Sample times are ``tick * interval_s`` rather than raw clock
        readings so frames from concurrently started shard workers land
        on the same grid and fold into one merged frame per tick.
        """
        interval = self._telemetry.interval_s
        while True:
            await asyncio.sleep(interval)
            self._telemetry_tick += 1
            self._sample_telemetry(self._telemetry_tick * interval)

    def _live_channels(self) -> tuple[dict[str, float], dict[str, float]]:
        depth = float(len(self._pending))
        return (
            {
                "serve.api.requests": float(self._requests),
                "serve.api.sheds": float(self._sheds),
                "serve.api.batches": float(self._batches),
            },
            {"serve.api.queue_depth": depth},
        )

    def _sample_telemetry(self, time_s: float) -> None:
        series = self._telemetry
        if series is None:
            return
        counters, gauges = self._live_channels()
        depth = gauges["serve.api.queue_depth"]
        gauge("serve.api.queue_depth").set(depth)
        states = None
        if self._alerts is not None:
            self._alerts.observe_window(
                time_s, {"queue_saturation": depth / self.queue_bound},
            )
            states = self._alerts.states()
        series.sample(
            time_s, counters=counters, gauges=gauges, alerts=states,
        )

    def _metrics(self) -> dict[str, Any]:
        """The ``metrics`` op: the live frame plus the recent series.

        ``frame`` is a fresh :meth:`TelemetrySeries.peek` over the
        current request/queue state (stamped with the last cadence
        boundary); ``frames`` is the recorded tail, so a poller can
        render sparklines without tailing the JSONL export.
        """
        series = self._telemetry
        if series is None:
            return {"enabled": False, "frame": None, "frames": []}
        counters, gauges = self._live_channels()
        frame = series.peek(
            self._telemetry_tick * series.interval_s,
            counters=counters, gauges=gauges,
            alerts=self._alerts.states() if self._alerts else None,
        )
        return {
            "enabled": True,
            "interval_s": series.interval_s,
            "frame": frame,
            "frames": series.tail(32),
        }

    def _stats(self) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "policy": getattr(self.decider, "name", "decider"),
            "requests": self._requests,
            "sheds": self._sheds,
            "batches": self._batches,
            "queue_depth": len(self._pending),
            "queue_bound": self.queue_bound,
            "max_batch": self.max_batch,
            "connections": self._connections,
            "draining": self._draining,
            # Hot-swap surface (repro.adapt): which coefficient set is
            # serving. Deciders without the surface report the static
            # version 0.
            "model_version": getattr(self.decider, "model_version", 0),
            "model_hash": getattr(self.decider, "model_hash", None),
            "last_swap_epoch_s": getattr(
                self.decider, "last_swap_epoch_s", None,
            ),
        }


def _place_result(decision: Decision) -> dict[str, Any]:
    """The wire form of one ``place`` answer."""
    return {
        "max_safe_instances": int(decision.max_safe_instances),
        "shed": bool(decision.shed),
        "cached": bool(decision.cached),
    }


def _fail_all(items: list[_Pending], exc: Exception) -> None:
    """Answer every still-open request of a batch with ``internal``."""
    for item in items:
        if not item.future.done():
            item.future.set_result(error_response(
                item.request_id, E_INTERNAL,
                f"{type(exc).__name__}: {exc}",
            ))


def _api_shard_worker(decider: Decider, host: str, conn,
                      options: dict[str, Any]) -> None:
    """Serve one shard in a worker process, shipping obs back on exit.

    The forked child inherits the parent's (fitted) decider and metric
    registry; it resets the registry first so the snapshot it ships back
    holds exactly this worker's serving metrics.

    When the parent had a telemetry sampler installed, the worker
    installs its own (same cadence) and streams ``("frame", ...)``
    messages once per interval while serving: each carries the registry
    delta since the previous frame plus the worker's freshly recorded
    telemetry frames, so the parent's registry and series track the
    fleet live instead of only at drain. The deltas sum to the worker's
    whole-run snapshot, so streaming never changes the folded totals.
    """
    obs.reset()
    inherited = timeseries.uninstall()
    series = None
    if inherited is not None:
        series = timeseries.install(inherited.interval_s)
    server = ApiServer(decider, host=host, port=0, **options)
    state = {"last": obs.snapshot()}

    async def _stream_loop() -> None:
        while True:
            await asyncio.sleep(series.interval_s)
            current = obs.snapshot()
            conn.send(("frame", {
                "obs": diff_snapshots(state["last"], current),
                "telemetry": series.drain_new(),
            }))
            state["last"] = current

    async def _main() -> None:
        bound = await server.start()
        conn.send(("ready", [bound[0], bound[1]]))
        streamer = None
        if series is not None:
            streamer = asyncio.create_task(_stream_loop())
        try:
            await server.serve_until_stopped()
        finally:
            if streamer is not None:
                streamer.cancel()
                with suppress(asyncio.CancelledError):
                    await streamer

    asyncio.run(_main())
    done: dict[str, Any] = {"requests": server.requests_served}
    if series is not None:
        done["obs"] = diff_snapshots(state["last"], obs.snapshot())
        done["telemetry"] = series.drain_new()
    else:
        done["obs"] = obs.snapshot()
    conn.send(("done", done))
    conn.close()


def run_api_shards(
    decider: Decider,
    *,
    shards: int,
    jobs: int | None = None,
    host: str = "127.0.0.1",
    ready_callback: Callable[[list[tuple[str, int]]], None] | None = None,
    **server_options: Any,
) -> list[dict[str, Any]]:
    """Serve the API from ``shards`` worker processes until they drain.

    Each worker runs its own :class:`ApiServer` on an ephemeral port
    (reported through ``ready_callback`` once all workers listen) with
    its own obs registry; a worker exits when it receives a ``shutdown``
    request or reaches ``max_requests``. Worker metric snapshots are
    folded back into the parent registry via :func:`repro.obs.merge`,
    exactly like the replay engine's placement shards. ``jobs`` caps the
    worker count (the servers are all concurrent, so the cap simply
    lowers ``shards``).

    Returns one summary dict per worker: host, port, requests served.
    A worker that dies raises :class:`~repro.errors.SchedulingError`
    once every other worker has been terminated and reaped.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if jobs is not None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        shards = min(shards, jobs)
    workers = []
    try:
        for _ in range(shards):
            parent_conn, child_conn = multiprocessing.Pipe()
            try:
                process = multiprocessing.Process(
                    target=_api_shard_worker,
                    args=(decider, host, child_conn, dict(server_options)),
                    daemon=True,
                )
                process.start()
                workers.append((process, parent_conn))
            finally:
                # The worker dup'ed its end on start; the parent's copy
                # must close or the pipe never reports EOF — including
                # when start() itself fails.
                child_conn.close()
        addresses: list[tuple[str, int]] = []
        for k, (process, parent_conn) in enumerate(workers):
            try:
                kind, payload = parent_conn.recv()
            except EOFError:
                raise _shard_died(k, process) from None
            if kind != "ready":  # pragma: no cover - defensive
                raise ReproError(
                    f"api shard worker sent {kind!r} before ready")
            addresses.append((payload[0], payload[1]))
        counter("serve.api.shard_workers").inc(len(workers))
        if ready_callback is not None:
            ready_callback(list(addresses))
        parent_series = timeseries.active()
        summaries: list[dict[str, Any] | None] = [None] * len(workers)
        index_of = {parent_conn: k
                    for k, (_process, parent_conn) in enumerate(workers)}
        pending = list(index_of)
        while pending:
            for parent_conn in _pipe_wait(pending):
                k = index_of[parent_conn]
                process = workers[k][0]
                bound_host, port = addresses[k]
                try:
                    kind, payload = parent_conn.recv()
                except EOFError:
                    raise _shard_died(k, process) from None
                if kind == "frame":
                    obs.merge(payload["obs"])
                    counter("serve.telemetry.frames").inc()
                    if parent_series is not None:
                        parent_series.merge(
                            {"frames": payload["telemetry"]}
                        )
                    continue
                with span("serve.api.shard_merge"):
                    obs.merge(payload["obs"])
                if parent_series is not None \
                        and payload.get("telemetry"):
                    parent_series.merge({"frames": payload["telemetry"]})
                summaries[k] = {"host": bound_host, "port": port,
                                "requests": payload["requests"]}
                pending.remove(parent_conn)
                process.join()
        return summaries
    finally:
        for process, _parent_conn in workers:
            if process.is_alive():
                process.terminate()
        for process, parent_conn in workers:
            process.join()
            parent_conn.close()


def _shard_died(k: int, process: multiprocessing.Process) -> SchedulingError:
    process.join(timeout=1.0)
    return SchedulingError(
        f"api shard {k} worker died (exit code {process.exitcode})")
