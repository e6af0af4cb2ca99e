"""Per-pool placement kernel and its multi-process shard pool.

The vectorized replay works in runs of epochs: it decides a run, places
it, then scores it. This module owns the *place* step, the only one
whose state is per server pool and therefore shards cleanly. The kernel
(:class:`PoolKernel`) consumes one pool's pre-decided event columns
(already filtered to events that can touch pool state) and replays them
with O(1) free-list structures:

- ``prof_of`` / ``cnt_of``: the batch profile and instance count of
  every server (``-1`` / ``0`` when idle);
- a lazily-validated min-heap per ``(profile, count)`` bucket plus an
  idle-server heap, giving the scalar engine's bin-packing rule —
  fullest same-profile server under the cap, lowest index on ties, else
  the lowest-index idle server — without scanning the pool;
- ``n_at`` occupancy counts, snapshotted after each epoch into the
  ``(profile, instances) -> servers`` groups the SLO/audit scorer needs.

Decisions never depend on which server a job landed on, so pools are
independent. :class:`EpochShardPool` keeps contiguous pool ranges'
kernels resident in persistent worker processes for a whole replay:
one message per run carries each pool's events out, the run's
per-epoch occupancy groups come back for scoring, and the final
fold-back merges the workers' metrics through the obs snapshot/merge
path. The workers hold no model-derived state, so a parent-side
coefficient swap propagates by construction: the next run's caps
already reflect it. The kernel is deterministic, so sharded and
in-process replays produce byte-identical event logs.
"""

from __future__ import annotations

import heapq
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, SchedulingError
from repro.obs import counter, diff_snapshots, span

__all__ = [
    "EpochShardPool",
    "PoolKernel",
    "PoolReplay",
]


@dataclass
class PoolReplay:
    """One pool's placement results, aligned with its input event stream."""

    #: Per event: local server index placed on / freed from, -1 baseline.
    server: np.ndarray
    #: Per event: placement code (0 colocated, 1 baseline).
    placement: np.ndarray
    #: Per event: the server's instance count after the event.
    instances_after: np.ndarray
    #: Per epoch: sorted ``(profile_idx, instances, server count)`` rows
    #: describing every occupied colocation state at the epoch boundary.
    groups_per_epoch: list[list[tuple[int, int, int]]]


class PoolKernel:
    """One pool's placement state, steppable one run of epochs at a time.

    Events arrive pre-sorted in global processing order and pre-filtered
    to this pool's *interesting* stream: arrivals whose decision allows
    at least one instance (``cap >= 1``) and the departures of exactly
    those jobs. ``cap`` is the per-arrival instance ceiling
    (``min(max_safe_instances, threads)``); placement picks the fullest
    same-profile server strictly below it, lowest index on ties, else
    the lowest-index idle server, else the baseline pool — the same rule
    as the scalar engine's ``_pick_server`` scan.

    ``n_states`` bounds the per-server instance count from above; bucket
    keys are dense ints ``profile * n_states + count`` (cheaper to hash
    than tuples, and sorting them sorts (profile, count)
    lexicographically). The outputs never depend on its exact value as
    long as every cap stays below it.
    """

    __slots__ = (
        "n_servers", "n_states", "prof_of", "cnt_of", "idle", "buckets",
        "n_at", "placed", "out_srv", "out_plc", "out_inst",
        "groups_per_epoch",
    )

    def __init__(self, n_servers: int, n_states: int) -> None:
        self.n_servers = n_servers
        self.n_states = n_states
        self.prof_of = [-1] * n_servers
        self.cnt_of = [0] * n_servers
        # ascending == already a valid min-heap
        self.idle = list(range(n_servers))
        self.buckets: dict[int, list[int]] = {}
        self.n_at: dict[int, int] = {}
        self.placed: dict[int, int] = {}
        self.out_srv: list[int] = []
        self.out_plc: list[int] = []
        self.out_inst: list[int] = []
        self.groups_per_epoch: list[list[tuple[int, int, int]]] = []

    def step(
        self,
        is_arrival: np.ndarray,
        job_pos: np.ndarray,
        profile_idx: np.ndarray,
        cap: np.ndarray,
        splits: np.ndarray,
    ) -> list[list[tuple[int, int, int]]]:
        """Replay one run of epochs; returns each epoch's groups.

        The four event columns are aligned; epoch ``k`` of the run owns
        events ``[splits[k], splits[k + 1])``.
        """
        is_arr = is_arrival.tolist()
        jobs = job_pos.tolist()
        profs = profile_idx.tolist()
        caps = cap.tolist()
        bounds = splits.tolist()
        return [
            self._epoch(is_arr, jobs, profs, caps, bounds[k], bounds[k + 1])
            for k in range(len(bounds) - 1)
        ]

    def _epoch(
        self,
        is_arr: Sequence[bool],
        jobs: Sequence[int],
        profs: Sequence[int],
        caps: Sequence[int],
        lo: int,
        hi: int,
    ) -> list[tuple[int, int, int]]:
        """Replay events ``[lo, hi)`` of one epoch; returns its groups."""
        n_states = self.n_states
        prof_of = self.prof_of
        cnt_of = self.cnt_of
        idle = self.idle
        buckets = self.buckets
        n_at = self.n_at
        placed = self.placed
        out_srv = self.out_srv
        out_plc = self.out_plc
        out_inst = self.out_inst
        hpush, hpop = heapq.heappush, heapq.heappop
        n_at_get = n_at.get
        for i in range(lo, hi):
            j = jobs[i]
            if is_arr[i]:
                p = profs[i]
                pbase = p * n_states
                best = -1
                c = caps[i] - 1
                while c >= 1:
                    key = pbase + c
                    if n_at_get(key, 0):
                        heap = buckets[key]
                        s = heap[0]
                        # entries are lazily validated: pop servers that
                        # have since left this (profile, count) state
                        while prof_of[s] != p or cnt_of[s] != c:
                            hpop(heap)
                            s = heap[0]
                        hpop(heap)
                        best = s
                        break
                    c -= 1
                if best < 0:
                    while idle:
                        s = hpop(idle)
                        if prof_of[s] == -1:
                            best = s
                            break
                if best >= 0:
                    old = cnt_of[best]
                    if old:
                        key = pbase + old
                        left = n_at[key] - 1
                        if left:
                            n_at[key] = left
                        else:
                            del n_at[key]
                    else:
                        prof_of[best] = p
                    new = old + 1
                    cnt_of[best] = new
                    key = pbase + new
                    n_at[key] = n_at_get(key, 0) + 1
                    hpush(buckets.setdefault(key, []), best)
                    placed[j] = best
                    out_srv.append(best)
                    out_plc.append(0)
                    out_inst.append(new)
                else:
                    out_srv.append(-1)
                    out_plc.append(1)
                    out_inst.append(0)
            else:
                s = placed.pop(j, -1)
                if s >= 0:
                    p = prof_of[s]
                    c = cnt_of[s]
                    key = p * n_states + c
                    left = n_at[key] - 1
                    if left:
                        n_at[key] = left
                    else:
                        del n_at[key]
                    nc = c - 1
                    cnt_of[s] = nc
                    if nc:
                        key -= 1
                        n_at[key] = n_at_get(key, 0) + 1
                        hpush(buckets.setdefault(key, []), s)
                    else:
                        prof_of[s] = -1
                        hpush(idle, s)
                    out_srv.append(s)
                    out_plc.append(0)
                    out_inst.append(nc)
                else:
                    out_srv.append(-1)
                    out_plc.append(1)
                    out_inst.append(0)
        groups = [
            (*divmod(key, n_states), n) for key, n in sorted(n_at.items())
        ]
        self.groups_per_epoch.append(groups)
        return groups

    def result(self) -> PoolReplay:
        """The accumulated :class:`PoolReplay` over every step so far."""
        return PoolReplay(
            server=np.array(self.out_srv, dtype=np.int64),
            placement=np.array(self.out_plc, dtype=np.int8),
            instances_after=np.array(self.out_inst, dtype=np.int64),
            groups_per_epoch=self.groups_per_epoch,
        )


def _shard_worker(
    conn, specs: list[tuple[int, int]], stream_every: int = 0,
) -> None:
    """Own a contiguous range of pool kernels for a whole replay.

    Protocol: each message carries one run's event columns per owned
    pool (see :meth:`PoolKernel.step`); the reply is ``("step", groups,
    frame)`` — each pool's per-epoch occupancy groups plus, every
    ``stream_every`` steps (``0`` = never), a registry-delta frame since
    the last shipped one. ``None`` closes the stream, answered with
    ``("done", payload)``: the final :class:`PoolReplay` results plus
    the residual obs delta for the parent to merge. The shipped deltas
    always sum to the worker's whole-run snapshot, so streaming cannot
    change the folded totals. Any exception is answered with
    ``("error", traceback)``. The worker never sees coefficients or
    predictions — placement is decision-driven — so parent-side model
    swaps need no propagation beyond the caps already embedded in the
    next run's events.
    """
    obs.reset()
    try:
        kernels = [PoolKernel(n_servers, n_states)
                   for n_servers, n_states in specs]
        last = obs.snapshot()
        steps = 0
        with span("serve.shard.replay"):
            while True:
                message = conn.recv()
                if message is None:
                    break
                groups = [
                    kernel.step(*columns)
                    for kernel, columns in zip(kernels, message)
                ]
                counter("serve.shard.events").inc(
                    sum(int(columns[0].size) for columns in message)
                )
                steps += 1
                frame = None
                if stream_every and steps % stream_every == 0:
                    current = obs.snapshot()
                    frame = diff_snapshots(last, current)
                    last = current
                conn.send(("step", groups, frame))
        conn.send(("done", {
            "results": [kernel.result() for kernel in kernels],
            "obs": diff_snapshots(last, obs.snapshot()),
        }))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        raise
    finally:
        conn.close()


class EpochShardPool:
    """Persistent placement workers, stepped one run of epochs at a time.

    ``specs`` holds one ``(n_servers, n_states)`` pair per pool; pools
    are partitioned into contiguous ranges, and each range's kernels
    live in one worker process for the whole replay, so placement state
    persists across runs. ``shards`` is the number of ranges (at most
    one per pool) and ``jobs`` caps the worker-process count directly.

    ``stream_every`` > 0 makes each worker attach a registry-delta frame
    to every Nth step reply (the engine picks N so frames land on the
    telemetry cadence); the parent merges frames in a fixed worker
    order and feeds them to ``on_frame``, keeping the fold deterministic
    and the end-of-run totals unchanged.

    A worker that dies or raises fails the pending :meth:`step` or
    :meth:`finish` with a :class:`~repro.errors.SchedulingError` naming
    the shard (with the worker's traceback when it sent one), after
    every worker has been terminated and reaped. :meth:`close` does the
    same teardown for callers that stop early.
    """

    def __init__(
        self,
        specs: list[tuple[int, int]],
        *,
        shards: int,
        jobs: int | None = None,
        stream_every: int = 0,
        on_frame: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if jobs is not None and jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        shards = min(shards, len(specs))
        if jobs is not None:
            shards = min(shards, jobs)
        shards = max(shards, 1)
        if stream_every < 0:
            raise ConfigurationError(
                f"stream_every must be >= 0, got {stream_every}"
            )
        self._on_frame = on_frame
        n = len(specs)
        self._bounds = [(k * n) // shards for k in range(shards + 1)]
        counter("serve.shard.workers").inc(shards)
        context = multiprocessing.get_context()
        self._conns = []
        self._procs = []
        for k in range(shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker,
                args=(child_conn, specs[self._bounds[k]:self._bounds[k + 1]],
                      stream_every),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(process)

    def step(
        self, runs: Sequence[tuple[np.ndarray, ...]],
    ) -> list[list[list[tuple[int, int, int]]]]:
        """Place one run's events; returns each pool's per-epoch groups.

        ``runs`` holds one :meth:`PoolKernel.step` argument tuple per
        pool.
        """
        try:
            for k in range(len(self._conns)):
                self._send(k, runs[self._bounds[k]:self._bounds[k + 1]])
            groups: list[list[list[tuple[int, int, int]]]] = []
            for k in range(len(self._conns)):
                worker_groups, frame = self._recv(k)
                groups.extend(worker_groups)
                if frame is not None:
                    obs.merge(frame)
                    counter("serve.telemetry.frames").inc()
                    if self._on_frame is not None:
                        self._on_frame(frame)
        except BaseException:
            self.close()
            raise
        return groups

    def finish(self) -> list[PoolReplay]:
        """Drain final results, fold worker obs back, reap the workers."""
        results: list[PoolReplay] = []
        try:
            for k in range(len(self._conns)):
                self._send(k, None)
            with span("serve.shard.merge"):
                for k in range(len(self._conns)):
                    (payload,) = self._recv(k)
                    obs.merge(payload["obs"])
                    results.extend(payload["results"])
        finally:
            self.close()
        return results

    def close(self) -> None:
        """Terminate and reap every worker still running (idempotent)."""
        for process in self._procs:
            if process.is_alive():
                process.terminate()
        for process in self._procs:
            process.join()
        for conn in self._conns:
            conn.close()

    def _send(self, k: int, message: Any) -> None:
        try:
            self._conns[k].send(message)
        except OSError as exc:
            raise self._failure(k) from exc

    def _recv(self, k: int) -> list[Any]:
        """Shard ``k``'s next reply payload; raises if the worker failed."""
        try:
            kind, *payload = self._conns[k].recv()
        except (EOFError, OSError) as exc:
            raise self._failure(k) from exc
        if kind == "error":
            raise SchedulingError(
                f"shard {k} placement worker failed:\n{payload[0]}"
            )
        return payload

    def _failure(self, k: int) -> SchedulingError:
        process = self._procs[k]
        process.join(timeout=1.0)
        return SchedulingError(
            f"shard {k} placement worker died "
            f"(exit code {process.exitcode})"
        )


# -- names the end-to-end benchmark's layer tracer patches ---------------
#
# Nothing in the package calls these two: ``benchmarks/e2e/layers.py``
# wraps them by name, so they stay as thin adapters onto the kernel and
# the shard pool until the benchmark drops them from its targets.


def replay_pool_events(
    *,
    is_arrival: np.ndarray,
    job_pos: np.ndarray,
    profile_idx: np.ndarray,
    cap: np.ndarray,
    epoch: np.ndarray,
    n_epochs: int,
    n_servers: int,
) -> PoolReplay:
    """One pool's whole-trace event columns through a fresh kernel."""
    kernel = PoolKernel(n_servers, (int(cap.max()) if cap.size else 0) + 2)
    kernel.step(is_arrival, job_pos, profile_idx, cap,
                np.searchsorted(epoch, np.arange(n_epochs + 1)))
    return kernel.result()


def run_pool_shards(
    pool_inputs: list[dict[str, Any]], *, shards: int, jobs: int | None = None,
) -> list[PoolReplay]:
    """:func:`replay_pool_events` for every pool, as one sharded step."""
    pool = EpochShardPool(
        [(p["n_servers"], (int(p["cap"].max()) if p["cap"].size else 0) + 2)
         for p in pool_inputs],
        shards=shards, jobs=jobs,
    )
    pool.step([
        (p["is_arrival"], p["job_pos"], p["profile_idx"], p["cap"],
         np.searchsorted(p["epoch"], np.arange(p["n_epochs"] + 1)))
        for p in pool_inputs
    ])
    return pool.finish()
