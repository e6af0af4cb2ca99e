"""Per-pool placement kernel and its multi-process shard pool.

The vectorized replay works in runs of epochs: it decides a run, places
it, then scores it. This module owns the *place* step, the only one
whose state is per server pool and therefore shards cleanly. The kernel
(:class:`PoolKernel`) consumes one pool's pre-decided event columns
(already filtered to events that can touch pool state), encodes each
event in numpy as one int, and replays the codes in one Python loop
over dense list state:

- ``key_of``: every server's colocation state as a bucket key
  ``profile * n_states + instances`` (``-1`` when idle);
- ``n_at``: the number of servers in each state, snapshotted after each
  epoch into the ``(profile, instances) -> servers`` groups the
  SLO/audit scorer needs;
- one lazily-validated min-heap per state plus an idle-server heap
  (O(log n) per push or pop), giving the engine's bin-packing
  rule — fullest same-profile server under the cap, lowest index on
  ties, else the lowest-index idle server — without scanning the pool.

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
    as the linear scan of the test suite's per-event reference loop
    (``tests/serve/scalar_oracle.py``).

    ``n_states`` bounds the per-server instance count from above; state
    keys are dense ints ``profile * n_states + count``, so per-state
    lists index by key and ascending keys sort (profile, count)
    lexicographically. The outputs never depend on its exact value as
    long as every cap stays below it.

    :meth:`step` encodes each event as one int before the loop runs:

    - an arrival becomes the highest key it may search,
      ``profile * n_states + cap - 1`` (count 0: straight to idle);
    - a departure becomes ``~k``, where ``k`` is the kernel-local output
      index of the same job's arrival, looked up in ``arrival_of`` (a
      numpy map from job position to that index). The departure frees
      the server its arrival's output row names; ``-1`` there means
      the job went to the baseline pool and leaves no state to free.

    A job position may arrive at most once per step and must depart
    after its arrival; positions may be reused in later steps.

    Heap entries are validated lazily: a server that leaves a state
    keeps its stale entry until a search pops it
    (``serve.shard.stale_pops``). A server is pushed into a state's
    heap only if some arrival seen so far could search that state, i.e.
    its count is below the highest cap seen for its profile; servers
    that reach a profile's highest cap — most of the fleet's fills —
    would otherwise leave one entry per fill that nothing ever pops.
    The first arrival with a higher cap makes its states searchable and
    fills their heaps from ``key_of``, at most ``n_states`` times per
    profile.
    """

    __slots__ = (
        "n_servers", "n_states", "key_of", "idle", "n_at", "buckets",
        "searchable", "count_of_key", "group_keys", "arrival_of", "out_srv",
        "out_inst", "groups_per_epoch",
    )

    def __init__(self, n_servers: int, n_states: int) -> None:
        self.n_servers = n_servers
        self.n_states = n_states
        self.key_of = [-1] * n_servers
        # ascending == already a valid min-heap
        self.idle = list(range(n_servers))
        # Per state key, grown one profile at a time. ``n_at`` holds a
        # nonzero sentinel at each profile's count-0 key, which stops
        # the downward search there (groups skip count-0 keys).
        self.n_at: list[int] = []
        self.buckets: list[list[int]] = []
        self.searchable: list[bool] = []
        self.count_of_key: list[int] = []
        #: ``(key, profile, count)`` of every state with count >= 1.
        self.group_keys: list[tuple[int, int, int]] = []
        # int32 halves the map's memory; output rows stay below 2**31.
        self.arrival_of = np.full(0, -1, dtype=np.int32)
        self.out_srv: list[int] = []
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
        n = int(is_arrival.size)
        first = len(self.out_srv)
        codes = self._encode(is_arrival, job_pos, profile_idx, cap, first)
        self.out_srv += [-1] * n
        self.out_inst += [0] * n
        counter("serve.shard.events").inc(n)
        bounds = splits.tolist()
        stale = 0
        groups = []
        for k in range(len(bounds) - 1):
            lo, hi = bounds[k], bounds[k + 1]
            stale += self._replay(codes[lo:hi], first + lo)
            groups.append(self._groups())
        counter("serve.shard.stale_pops").inc(stale)
        self.groups_per_epoch.extend(groups)
        return groups

    def _encode(
        self,
        is_arrival: np.ndarray,
        job_pos: np.ndarray,
        profile_idx: np.ndarray,
        cap: np.ndarray,
        first: int,
    ) -> list[int]:
        """One int per event (see the class docstring); grows the state."""
        arrive = is_arrival.astype(bool, copy=False)
        local = np.arange(first, first + arrive.size)
        if not local.size:
            return []
        self._grow_profiles(int(profile_idx.max()) + 1)
        top_job = int(job_pos.max())
        if top_job >= self.arrival_of.size:
            grown = np.full(max(top_job + 1, 2 * self.arrival_of.size), -1,
                            dtype=self.arrival_of.dtype)
            grown[:self.arrival_of.size] = self.arrival_of
            self.arrival_of = grown
        arrival_of = self.arrival_of
        before = arrival_of[job_pos]
        arr_jobs = job_pos[arrive]
        arr_local = local[arrive]
        arrival_of[arr_jobs] = arr_local
        if not np.array_equal(arrival_of[arr_jobs], arr_local):
            raise ConfigurationError(
                "a job position arrives more than once in one step"
            )
        # A departure belongs to this step's arrival of its job only if
        # that arrival came first; otherwise to the one before the step.
        # (An arrival maps to itself here, so only departures can be -1.)
        after = arrival_of[job_pos]
        origin = np.where(after <= local, after, before)
        if int(origin.min()) < 0:
            raise ConfigurationError("a job departs that never arrived")
        return np.where(
            arrive,
            profile_idx.astype(np.int64, copy=False) * self.n_states
            + np.maximum(cap - 1, 0),
            ~origin,
        ).tolist()

    def _grow_profiles(self, n_profiles: int) -> None:
        """Extend the per-state lists to cover ``n_profiles`` profiles."""
        n_states = self.n_states
        for key in range(len(self.n_at), n_profiles * n_states):
            count = key % n_states
            self.n_at.append(0 if count else 1)
            self.buckets.append([])
            self.searchable.append(not count)
            self.count_of_key.append(count)
            if count:
                self.group_keys.append((key, key // n_states, count))

    def _make_searchable(self, code: int) -> None:
        """Fill the heaps of every state up to ``code`` not yet searchable.

        Nothing was pushed into them, so each is rebuilt from ``key_of``
        (ascending server order is already a valid min-heap).
        """
        searchable = self.searchable
        key = code
        while not searchable[key]:
            key -= 1
        new_keys = range(key + 1, code + 1)
        occupied = [k for k in new_keys if self.n_at[k]]
        if occupied:
            key_of = np.asarray(self.key_of)
            for k in occupied:
                self.buckets[k] = np.flatnonzero(key_of == k).tolist()
        for k in new_keys:
            searchable[k] = True

    def _replay(self, codes: Sequence[int], first: int) -> int:
        """Replay encoded events whose outputs start at ``first``.

        Returns the number of stale heap entries popped.
        """
        key_of = self.key_of
        idle = self.idle
        n_at = self.n_at
        buckets = self.buckets
        searchable = self.searchable
        count_of_key = self.count_of_key
        out_srv = self.out_srv
        out_inst = self.out_inst
        hpush, hpop = heapq.heappush, heapq.heappop
        stale = 0
        for o, code in enumerate(codes, first):
            if code >= 0:
                if not searchable[code]:
                    self._make_searchable(code)
                key = code
                while not n_at[key]:
                    key -= 1
                if count_of_key[key]:
                    heap = buckets[key]
                    s = hpop(heap)
                    while key_of[s] != key:
                        stale += 1
                        s = hpop(heap)
                    n_at[key] -= 1
                elif idle:
                    s = hpop(idle)
                else:
                    continue  # baseline: the output row stays (-1, 0)
                key += 1
                key_of[s] = key
                n_at[key] += 1
                if searchable[key]:
                    hpush(buckets[key], s)
                out_srv[o] = s
                out_inst[o] = count_of_key[key]
            else:
                s = out_srv[~code]
                if s < 0:
                    continue
                key = key_of[s]
                n_at[key] -= 1
                key -= 1
                count = count_of_key[key]
                if count:
                    key_of[s] = key
                    n_at[key] += 1
                    if searchable[key]:
                        hpush(buckets[key], s)
                else:
                    key_of[s] = -1
                    hpush(idle, s)
                out_srv[o] = s
                out_inst[o] = count
        return stale

    def _groups(self) -> list[tuple[int, int, int]]:
        """The current occupied states as sorted ``(profile, count, n)``."""
        n_at = self.n_at
        return [
            (profile, count, n)
            for key, profile, count in self.group_keys
            if (n := n_at[key])
        ]

    def result(self) -> PoolReplay:
        """The accumulated :class:`PoolReplay` over every step so far."""
        server = np.array(self.out_srv, dtype=np.int64)
        return PoolReplay(
            server=server,
            placement=(server < 0).astype(np.int8),
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
