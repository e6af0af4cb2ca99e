"""Discrete-event cluster runtime: replay a trace against live servers.

The engine holds ``Cluster``-style server state — one half-loaded
latency-sensitive service per server, idle SMT sibling contexts for
batch work — and replays a :class:`~repro.serve.traffic.Trace` against
it. Every arrival is routed to a service pool (deterministic round-robin
on job id), put to the :class:`~repro.serve.service.Decider` exactly
once, and either *co-located* on a server the decision calls safe or
*shunted to the baseline pool* (dedicated no-co-location capacity, where
shed and unsafe jobs run alone). Every departure frees its context.

Time is the simulated event clock — the engine never reads a wall
clock. Events are ordered by ascending ``(time, kind, job id)`` with
departures ranked before arrivals, and assigned to epochs by one
``searchsorted`` over the epoch grid. The replay *plans* the whole
event stream in numpy, then works in struct-of-arrays *runs* of epochs:
it *decides* each epoch of the run through
:meth:`~repro.serve.service.Decider.begin_epoch_batch` and
:meth:`~repro.serve.service.Decider.decide_batch`, *places* the whole
run in one pass through per-pool placement kernels (lazily validated
heaps) from :mod:`repro.serve.shard` (optionally resident in worker
processes with ``shards``/``jobs``), then *scores* each epoch
(aggregated SLO/audit accounting, telemetry, the adaptation hook), and
finally *assembles* the narrow event columns.
Placement never feeds back into decisions, so without adaptation the
whole trace is one run; with it every epoch is its own run, because a
coefficient swap at an epoch's end can change the next decisions.

The per-event reference loop the replay is held to lives in the test
suite (``tests/serve/scalar_oracle.py``): given the same trace it
produces byte-identical event logs, SLO series, and books.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigurationError, SchedulingError
from repro.obs import PredictionAudit, counter, gauge, span
from repro.obs import timeseries
from repro.obs import trace as obs_trace
from repro.serve.events import EventRecord, EventTable, index_dtype
from repro.serve.service import CandidateStream, Decider
from repro.serve.shard import EpochShardPool, PoolKernel, PoolReplay
from repro.serve.slo import SloWindow, WindowedSlo
from repro.serve.traffic import Trace
from repro.smt.simulator import Simulator
from repro.workloads.cloudsuite import LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.adapt.decider import AdaptationController

__all__ = [
    "EventRecord",
    "ReplayOutcome",
    "ServingEngine",
]

#: Event-kind sort ranks: at equal timestamps departures free contexts
#: before arrivals claim them.
_DEPART, _ARRIVE = 0, 1

#: Colocation-state group rows: (app idx, profile idx, instances, count).
_Group = tuple[int, int, int, int]


class _EventPlan(NamedTuple):
    """Every event in processing order, one aligned column per field.

    ``job_pos`` (the job's trace position) stays intp: it fancy-indexes.
    The other columns already have their ``EventTable`` dtypes. Epoch
    ``e`` owns events ``[ev_splits[e], ev_splits[e + 1])`` and arrivals
    ``[arr_splits[e], arr_splits[e + 1])`` of ``job_pos[kind == _ARRIVE]``.
    """

    time_s: np.ndarray
    kind: np.ndarray
    job_pos: np.ndarray
    app_idx: np.ndarray
    profile_idx: np.ndarray
    ev_splits: list[int]
    arr_splits: list[int]


@dataclass(frozen=True)
class ReplayOutcome:
    """Everything one trace replay produced, reconciled.

    ``arrivals == departures + still_placed`` and
    ``colocated_placed + baseline_placed == arrivals`` are checked at
    construction time (:meth:`reconcile` raises on mismatch).
    ``events`` is a columnar :class:`~repro.serve.events.EventTable`
    from the engine, or a tuple of :class:`EventRecord` from the test
    suite's per-event reference loop; both render the same byte-stable
    log.
    """

    policy: str
    trace_kind: str
    seed: int
    horizon_s: float
    arrivals: int
    departures: int
    still_placed: int
    colocated_placed: int
    baseline_placed: int
    shed: int
    events: Sequence[EventRecord]
    windows: tuple[SloWindow, ...]

    def __post_init__(self) -> None:
        self.reconcile()

    def reconcile(self) -> None:
        """Check the arrival/departure/placement books balance."""
        if self.arrivals != self.departures + self.still_placed:
            raise SchedulingError(
                f"unbalanced books: {self.arrivals} arrivals != "
                f"{self.departures} departures + {self.still_placed} placed"
            )
        if self.colocated_placed + self.baseline_placed != self.arrivals:
            raise SchedulingError(
                f"unbalanced placements: {self.colocated_placed} colocated "
                f"+ {self.baseline_placed} baseline != {self.arrivals}"
            )

    def event_log(self) -> str:
        """The full event log as one newline-joined deterministic string."""
        if isinstance(self.events, EventTable):
            return "\n".join(self.events.render_lines())
        return "\n".join(record.as_line() for record in self.events)

    def slo_series(self) -> str:
        """The windowed SLO series as one deterministic string."""
        return "\n".join(window.as_line() for window in self.windows)

    @property
    def mean_violation_rate(self) -> float:
        """Sample-weighted mean QoS-violation rate across windows."""
        colocated = sum(w.violations.colocated_servers for w in self.windows)
        violated = sum(w.violations.violated_servers for w in self.windows)
        return (violated / colocated) if colocated else 0.0

    @property
    def mean_utilization_gain(self) -> float:
        """Mean per-window utilization gain from co-located batch work."""
        if not self.windows:
            return 0.0
        gains = [w.mean_utilization_gain for w in self.windows]
        return sum(gains) / len(gains)


class ServingEngine:
    """Replays traces: routes, decides, places, frees, and keeps score."""

    def __init__(
        self,
        simulator: Simulator,
        apps: Sequence[LatencySensitiveWorkload],
        decider: Decider,
        *,
        servers_per_app: int = 8,
        epoch_s: float = 300.0,
        window_s: float = 3_600.0,
        slo: WindowedSlo | None = None,
        audit: PredictionAudit | None = None,
        adaptation: "AdaptationController | None" = None,
    ) -> None:
        apps = tuple(apps)
        if not apps:
            raise ConfigurationError("serving needs at least one latency app")
        if servers_per_app < 1:
            raise ConfigurationError(
                f"servers_per_app must be >= 1, got {servers_per_app}"
            )
        if epoch_s <= 0.0 or window_s < epoch_s:
            raise ConfigurationError(
                "need 0 < epoch_s <= window_s, got "
                f"epoch_s={epoch_s}, window_s={window_s}"
            )
        self.simulator = simulator
        self.apps = apps
        self.decider = decider
        self.servers_per_app = servers_per_app
        self.epoch_s = epoch_s
        self.window_s = window_s
        self.slo = slo
        #: Prediction-accuracy audit fed at every fleet refresh; pass
        #: the same instance to the SLO tracker so window closes drain
        #: its drift accumulator.
        self.audit = audit
        if adaptation is not None and (slo is None or audit is None):
            raise ConfigurationError(
                "adaptation needs both an SLO tracker (drift windows) "
                "and a prediction audit (residual stream)"
            )
        #: Drift-triggered recalibration controller (repro.adapt). Fed
        #: every audited comparison and stepped at each epoch boundary;
        #: when it swaps coefficients the engine drops its prediction
        #: memo (measured-degradation caches are coefficient-free and
        #: survive).
        self.adaptation = adaptation
        #: idle SMT contexts per server = one sibling per core
        self.threads_per_server = simulator.machine.cores
        self._n_states = self.threads_per_server + 2  # > any instance count
        self.n_servers = servers_per_app * len(apps)
        #: measured degradation per (app idx, profile idx, instances)
        #: colocation state, filled lazily through one batched prefetch
        #: per epoch; valid for one replay's pool (reset per replay —
        #: profile indices are trace-relative, and the simulator's
        #: measurement memo carries values across replays)
        self._deg_idx: dict[tuple[int, int, int], float] = {}
        #: index-keyed memo of the decider's (deterministic) predictions
        self._pred_idx: dict[tuple[int, int, int], float] = {}

    # -- shared event-ordering contract --------------------------------

    def _epoch_grid(self, horizon_s: float) -> tuple[int, np.ndarray]:
        """Epoch count and closing edges; an event at time t belongs to
        the first epoch whose end is strictly greater than t."""
        n_epochs = max(1, math.ceil(horizon_s / self.epoch_s))
        ends = np.minimum(
            np.arange(1, n_epochs + 1, dtype=float) * self.epoch_s,
            horizon_s,
        )
        return n_epochs, ends

    def _arrival_plan(
        self, trace: Trace, ends: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Arrival processing order and per-arrival epoch.

        Returns job positions sorted by ``(arrival_s, job_id)`` — the
        heap's tie-break — restricted to arrivals inside the horizon
        (later ones are never popped), plus each arrival's epoch index.
        """
        order = np.lexsort((trace.job_id, trace.arrival_s))
        live = trace.arrival_s[order] < trace.horizon_s
        order = order[live]
        epochs = np.searchsorted(ends, trace.arrival_s[order], side="right")
        return order, epochs

    # -- shared fleet scoring ------------------------------------------

    def _score_fleet(
        self,
        time_s: float,
        groups: Sequence[_Group],
        pool: Sequence[WorkloadProfile],
        *,
        sheds: int = 0,
        requests: int = 0,
    ) -> None:
        """Score one fleet sample from aggregated colocation groups.

        ``groups`` rows are (app idx, profile idx, instances, count) in
        canonical ascending order — in-process, sharded and reference
        replays produce the same rows in the same order, so the SLO
        series and audit books accumulate floats identically. Unseen
        states are measured once through a batched prefetch and cached
        for the rest of the run.
        """
        deg_idx = self._deg_idx
        missing = [
            (a, p, inst) for a, p, inst, _count in groups
            if (a, p, inst) not in deg_idx
        ]
        if missing:
            self.simulator.prefetch_readings(servers=[
                (self.apps[a].profile, pool[p], inst, "smt", None)
                for a, p, inst in missing
            ])
            for a, p, inst in missing:
                deg_idx[(a, p, inst)] = (
                    self.simulator.measure_server_degradation(
                        self.apps[a].profile, pool[p], instances=inst,
                    )
                )
        scored: list[tuple[str, float, int, int]] = []
        audit = self.audit
        adaptation = self.adaptation
        pred_idx = self._pred_idx
        for a, p, inst, count in groups:
            key = (a, p, inst)
            app = self.apps[a]
            degradation = deg_idx[key]
            scored.append((app.name, degradation, inst, count))
            if audit is not None:
                # Predictions are deterministic once made, so non-None
                # values are cached; None (not predicted yet) is re-asked.
                predicted = pred_idx.get(key)
                if predicted is None:
                    predicted = self.decider.predicted_degradation(
                        app, pool[p], inst,
                    )
                    if predicted is not None:
                        pred_idx[key] = predicted
                if predicted is not None:
                    audit.record(
                        app.name, pool[p].name,
                        predicted=predicted, actual=degradation,
                        count=count,
                    )
                    if adaptation is not None:
                        adaptation.observe(
                            app, pool[p], inst,
                            predicted=predicted, actual=degradation,
                            count=count,
                        )
        if self.slo is not None:
            self.slo.observe_groups(
                time_s, scored,
                n_servers=self.n_servers,
                threads_per_server=self.threads_per_server,
                sheds=sheds,
                requests=requests,
            )

    def _telemetry_tick(
        self, time_s: float, arrivals: int, departures: int, sheds: int,
    ) -> None:
        """Offer one telemetry frame at an epoch boundary.

        The cumulative tallies are computed from the event plan (not
        read from the registry, whose counters batch at different points
        on different paths), so sampled frames are identical across
        in-process, sharded and reference replays. No-op unless a
        sampler is installed.
        """
        series = timeseries.active()
        if series is None:
            return
        alerts = self.slo.alerts if self.slo is not None else None
        series.maybe_sample(
            time_s,
            counters={
                "serve.engine.arrivals": float(arrivals),
                "serve.engine.departures": float(departures),
                "serve.engine.sheds": float(sheds),
            },
            alerts=alerts.states() if alerts is not None else None,
        )

    # -- public entry point --------------------------------------------

    def replay(
        self,
        trace: Trace,
        *,
        shards: int = 0,
        jobs: int | None = None,
    ) -> ReplayOutcome:
        """Run one trace to its horizon; returns the reconciled outcome.

        ``shards > 1`` keeps the placement kernels in that many worker
        processes (capped at one shard per server pool), using at most
        ``jobs`` workers. Sharded and in-process replays produce
        byte-identical event logs and books.
        """
        # profile indices are relative to this trace's pool
        self._deg_idx = {}
        self._pred_idx = {}
        with span("serve.replay"):
            ends = self._epoch_grid(trace.horizon_s)[1]
            plan = self._plan_events(trace, ends)
            cap_of_job, shed_per_epoch, outputs = self._run_epochs(
                trace, plan, ends, shards=shards, jobs=jobs,
            )
            return self._assemble(trace, plan, ends, cap_of_job,
                                  shed_per_epoch, outputs)

    # -- replay phases -------------------------------------------------
    # Each returns only what later phases read, so its temporaries die
    # when it returns.

    def _plan_events(self, trace: Trace, ends: np.ndarray) -> _EventPlan:
        """Plan phase: the arrivals inside the horizon plus the in-horizon
        departures of those jobs, in ``(time, kind, job id)`` order.

        Arrivals come out of :meth:`_arrival_plan` in ``(time, job id)``
        order, so only the departures are sorted; each is then merged in
        ahead of the first arrival at or after its time.
        """
        arr_order, arr_epoch = self._arrival_plan(trace, ends)
        arr_t = trace.arrival_s[arr_order]
        dep_t = trace.departure_s[arr_order]
        live = dep_t < trace.horizon_s
        dep_pos, dep_t = arr_order[live], dep_t[live]
        by_time = np.lexsort((trace.job_id[dep_pos], dep_t))
        dep_pos, dep_t = dep_pos[by_time], dep_t[by_time]
        dep_at = np.searchsorted(arr_t, dep_t) + np.arange(dep_t.size)
        kind = np.full(arr_t.size + dep_t.size, _ARRIVE, dtype=np.int8)
        kind[dep_at] = _DEPART
        is_arrival = kind == _ARRIVE
        time_s = np.empty(kind.size)
        time_s[is_arrival], time_s[dep_at] = arr_t, dep_t
        job_pos = np.empty(kind.size, dtype=np.intp)
        job_pos[is_arrival], job_pos[dep_at] = arr_order, dep_pos
        n_apps = len(self.apps)
        app_of_job = (trace.job_id % n_apps).astype(index_dtype(n_apps))
        profile_of_job = trace.profile_idx.astype(
            index_dtype(len(trace.pool)))
        return _EventPlan(
            time_s, kind, job_pos, app_of_job[job_pos],
            profile_of_job[job_pos],
            [0, *np.searchsorted(time_s, ends).tolist()],
            np.searchsorted(arr_epoch, np.arange(ends.size + 1)).tolist(),
        )

    def _run_epochs(
        self, trace: Trace, plan: _EventPlan, ends: np.ndarray, *,
        shards: int, jobs: int | None,
    ) -> tuple[np.ndarray, np.ndarray, list[PoolReplay]]:
        """Decide, place and score every run of epochs; returns each
        job's cap (see :meth:`_decide`), each epoch's shed count and each
        pool's :class:`PoolReplay`."""
        adaptation = self.adaptation
        n_epochs = ends.size
        arr_order = plan.job_pos[plan.kind == _ARRIVE]
        # Arrival/departure totals are decision-independent (a shed job
        # still departs from the baseline pool), so the running-jobs
        # series is precomputable.
        arr_per_epoch = np.diff(plan.arr_splits)
        dep_per_epoch = np.diff(plan.ev_splits) - arr_per_epoch
        running = np.cumsum(arr_per_epoch - dep_per_epoch)
        cum_arr = np.cumsum(arr_per_epoch)
        cum_dep = np.cumsum(dep_per_epoch)
        running_gauge = gauge("serve.engine.running")

        run_len = 1 if adaptation is not None else n_epochs
        cap_of_job = np.zeros(len(trace), dtype=index_dtype(self._n_states))
        shed_per_epoch = np.zeros(n_epochs, dtype=np.int64)
        shed_running = 0
        # Caps never exceed the context supply, so one state bound
        # serves every pool; kernel outputs are bound-independent.
        specs = [(self.servers_per_app, self._n_states)] * len(self.apps)
        pool: EpochShardPool | None = None
        kernels: list[PoolKernel] = []
        if shards > 1:
            pool = EpochShardPool(specs, shards=shards, jobs=jobs)
        else:
            kernels = [PoolKernel(*spec) for spec in specs]
        try:
            for r0 in range(0, n_epochs, run_len):
                r1 = min(r0 + run_len, n_epochs)
                with span("serve.decide"):
                    self._decide(trace, arr_order, plan.arr_splits, r0, r1,
                                 cap_of_job, shed_per_epoch)
                with span("serve.place"):
                    runs = self._pool_runs(plan, cap_of_job, r0, r1)
                    if pool is not None:
                        run_groups = pool.step(list(runs))
                    else:
                        run_groups = [
                            kernel.step(*columns)
                            for kernel, columns in zip(kernels, runs)
                        ]

                with span("serve.score"):
                    for e in range(r0, r1):
                        end = float(ends[e])
                        running_gauge.set(float(running[e]))
                        obs_trace.counter_value(
                            "serve.engine.running", float(running[e]),
                            sim_time_s=end,
                        )
                        groups: list[_Group] = [
                            (p, prof, inst, count)
                            for p in range(len(self.apps))
                            for prof, inst, count in run_groups[p][e - r0]
                        ]
                        self._score_fleet(
                            end, groups, trace.pool,
                            sheds=int(shed_per_epoch[e]),
                            requests=int(arr_per_epoch[e]),
                        )
                        shed_running += int(shed_per_epoch[e])
                        self._telemetry_tick(
                            end, int(cum_arr[e]), int(cum_dep[e]),
                            shed_running,
                        )
                        # The epoch boundary is the only legal swap
                        # point: scoring above fed this epoch's
                        # residuals, the next epoch's decisions see the
                        # (possibly) new coefficients — matching the
                        # per-event reference loop event for event.
                        if (adaptation is not None
                                and adaptation.end_epoch(end)):
                            self._pred_idx = {}

            if pool is not None:
                outputs = pool.finish()
            else:
                outputs = [kernel.result() for kernel in kernels]
        finally:
            if pool is not None:
                pool.close()
        return cap_of_job, shed_per_epoch, outputs

    def _decide(
        self, trace: Trace, arr_order: np.ndarray, arr_splits: list[int],
        r0: int, r1: int, cap_of_job: np.ndarray, shed_per_epoch: np.ndarray,
    ) -> None:
        """Decide phase: one batch per epoch of ``[r0, r1)``.

        Writes each arrival's cap into ``cap_of_job`` (-1 when shed, else
        ``max_safe_instances`` clipped to ``[0, threads]``) and each
        epoch's shed count into ``shed_per_epoch``.
        """
        n_apps, n_pool = len(self.apps), len(trace.pool)
        n_pairs = n_apps * n_pool
        threads = self.threads_per_server
        s0 = arr_splits[r0]
        starts = [s - s0 for s in arr_splits[r0:r1 + 1]]
        job_pos = arr_order[s0:arr_splits[r1]]
        app_c = (trace.job_id[job_pos] % n_apps).astype(np.intp, copy=False)
        prof_c = trace.profile_idx[job_pos]
        # uid_combo holds the distinct (epoch, pair) codes in order, so
        # each epoch's uids are a contiguous slice; inv is rebased to be
        # epoch-local.
        epoch = np.repeat(np.arange(r1 - r0), np.diff(starts))
        uid_combo, inv = np.unique(
            epoch * n_pairs + app_c * n_pool + prof_c, return_inverse=True,
        )
        uid_off = np.searchsorted(uid_combo // n_pairs,
                                  np.arange(len(starts)))
        inv -= uid_off[epoch]
        stream = CandidateStream(
            self.apps, trace.pool, app_c, prof_c, threads,
            [(a.name, p.name, threads) for a in self.apps for p in trace.pool],
            starts, uid_off.tolist(), (uid_combo % n_pairs).tolist(), inv,
        )
        for k, e in enumerate(range(r0, r1)):
            batch = stream.batch(k)
            self.decider.begin_epoch_batch(batch)
            decisions = self.decider.decide_batch(batch)
            cap = np.clip(decisions.max_safe_instances, 0, threads)
            cap[decisions.shed] = -1
            cap_of_job[job_pos[starts[k]:starts[k + 1]]] = cap
            shed_per_epoch[e] = np.count_nonzero(decisions.shed)

    def _pool_runs(
        self, plan: _EventPlan, cap_of_job: np.ndarray, r0: int, r1: int,
    ) -> Iterator[tuple[np.ndarray, ...]]:
        """Place phase: each pool's :meth:`PoolKernel.step` columns for
        epochs ``[r0, r1)``, one pool at a time. Only arrivals allowed
        >= 1 instance and their departures can touch pool state."""
        e0, e1 = plan.ev_splits[r0], plan.ev_splits[r1]
        job_pos = plan.job_pos[e0:e1]
        cap = cap_of_job[job_pos]
        interesting = cap >= 1
        app, kind = plan.app_idx[e0:e1], plan.kind[e0:e1]
        bounds = np.asarray(plan.ev_splits[r0:r1 + 1]) - e0
        for p in range(len(self.apps)):
            local = np.flatnonzero(interesting & (app == p))
            yield (kind[local] == _ARRIVE, job_pos[local],
                   plan.profile_idx[e0:e1][local], cap[local],
                   np.searchsorted(local, bounds))

    def _assemble(
        self, trace: Trace, plan: _EventPlan, ends: np.ndarray,
        cap_of_job: np.ndarray, shed_per_epoch: np.ndarray,
        outputs: Sequence[PoolReplay],
    ) -> ReplayOutcome:
        """Assemble phase: scatter the pools' placements into the event
        table, batch the counters and reconcile the outcome."""
        cap = cap_of_job[plan.job_pos]
        server = np.full(cap.size, -1, dtype=np.int32)
        placement = np.ones(cap.size, dtype=np.int8)
        placement[(cap < 0) & (plan.kind == _ARRIVE)] = 2
        instances = np.zeros(cap.size, dtype=index_dtype(self._n_states))
        interesting = cap >= 1
        for p, out in enumerate(outputs):
            idx = np.flatnonzero(interesting & (plan.app_idx == p))
            base = p * self.servers_per_app
            server[idx] = np.where(out.server >= 0, out.server + base, -1)
            placement[idx] = out.placement
            instances[idx] = out.instances_after
        events = EventTable(
            time_s=plan.time_s, kind=plan.kind,
            job_id=trace.job_id[plan.job_pos],
            profile_idx=plan.profile_idx, app_idx=plan.app_idx,
            server=server, placement=placement, instances_after=instances,
            profiles=[p.name for p in trace.pool],
            apps=[a.name for a in self.apps],
        )

        n_events = len(events)
        n_arrivals = plan.arr_splits[-1]
        n_departures = n_events - n_arrivals
        colocated_ev = (events.kind == _ARRIVE) & (events.placement == 0)
        colocated_placed = int(np.count_nonzero(colocated_ev))
        shed = int(shed_per_epoch.sum())
        counter("serve.engine.epochs").inc(ends.size)
        counter("serve.engine.events").inc(n_events)
        counter("serve.engine.arrivals").inc(n_arrivals)
        counter("serve.engine.departures").inc(n_departures)
        counter("serve.engine.colocated").inc(colocated_placed)
        counter("serve.engine.baseline_placed").inc(
            n_arrivals - colocated_placed
        )
        if obs_trace.active() is not None:
            arr_per_epoch = np.diff(plan.arr_splits)
            colocated_per_epoch = np.diff(np.searchsorted(
                np.flatnonzero(colocated_ev), plan.ev_splits
            ))
            for e in range(ends.size):
                obs_trace.instant(
                    "serve.decision",
                    {
                        "epoch": e,
                        "arrivals": int(arr_per_epoch[e]),
                        "colocated": int(colocated_per_epoch[e]),
                        "baseline": int(
                            arr_per_epoch[e] - colocated_per_epoch[e]
                            - shed_per_epoch[e]
                        ),
                        "shed": int(shed_per_epoch[e]),
                    },
                    sim_time_s=float(ends[e]),
                )

        windows = self.slo.finish() if self.slo is not None else ()
        return ReplayOutcome(
            policy=self.decider.name,
            trace_kind=trace.kind,
            seed=trace.seed,
            horizon_s=trace.horizon_s,
            arrivals=n_arrivals,
            departures=n_departures,
            still_placed=n_arrivals - n_departures,
            colocated_placed=colocated_placed,
            baseline_placed=n_arrivals - colocated_placed,
            shed=shed,
            events=events,
            windows=tuple(windows),
        )
