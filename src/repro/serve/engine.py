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
``searchsorted`` over the epoch grid. The replay works in
struct-of-arrays *runs* of epochs: it *decides* each epoch of the run
through :meth:`~repro.serve.service.Decider.begin_epoch_batch` and
:meth:`~repro.serve.service.Decider.decide_batch`, *places* the whole
run in one pass through per-pool placement kernels (lazily validated
heaps) from :mod:`repro.serve.shard` (optionally resident in worker
processes with ``shards``/``jobs``), then *scores* each epoch
(aggregated SLO/audit accounting, telemetry, the adaptation hook).
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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError, SchedulingError
from repro.obs import PredictionAudit, counter, gauge, span
from repro.obs import timeseries
from repro.obs import trace as obs_trace
from repro.serve.events import EventRecord, EventTable
from repro.serve.service import CandidateStream, Decider
from repro.serve.shard import EpochShardPool, PoolKernel
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
            return self._replay_vector(trace, shards=shards, jobs=jobs)

    # -- replay --------------------------------------------------------

    def _replay_vector(
        self, trace: Trace, *, shards: int = 0, jobs: int | None = None,
    ) -> ReplayOutcome:
        """Struct-of-arrays replay over runs of epochs.

        Decisions never depend on placement, so each run of epochs is
        decided first, then placed in one pass, then scored epoch by
        epoch. Without adaptation the whole trace is one run. With it
        every run is one epoch: a coefficient swap at an epoch's end can
        change the next epoch's decisions.
        """
        adaptation = self.adaptation
        n_apps = len(self.apps)
        threads = self.threads_per_server
        n_jobs = len(trace)
        n_epochs, ends = self._epoch_grid(trace.horizon_s)
        app_of_job = (trace.job_id % n_apps).astype(np.intp)
        arr_order, arr_epoch = self._arrival_plan(trace, ends)
        n_arrivals = int(arr_order.size)

        # The candidate stream is decision-independent. One numpy pass
        # classifies every epoch's unique (app, profile) pairs: uid_combo
        # holds the distinct (epoch, pair) codes in order, so each
        # epoch's uids are a contiguous slice; inv is rebased to be
        # epoch-local.
        epoch_starts = np.searchsorted(arr_epoch,
                                       np.arange(n_epochs + 1)).tolist()
        app_c = app_of_job[arr_order]
        prof_c = trace.profile_idx[arr_order]
        n_pool = len(trace.pool)
        n_pairs = n_apps * n_pool
        key_table = [
            (app.name, profile.name, threads)
            for app in self.apps for profile in trace.pool
        ]
        pair_c = app_c * n_pool + prof_c
        combo = arr_epoch * n_pairs + pair_c
        uid_combo, inv_g = np.unique(combo, return_inverse=True)
        uid_epoch = uid_combo // n_pairs
        uid_off = np.searchsorted(uid_epoch, np.arange(n_epochs + 1))
        stream = CandidateStream(
            self.apps, trace.pool, app_c, prof_c, threads,
            key_table, epoch_starts, uid_off.tolist(),
            (uid_combo % n_pairs).tolist(),
            inv_g - uid_off[arr_epoch],
        )

        # Merged event table: arrivals plus in-horizon departures of
        # processed arrivals, in (time, kind, job id) processing order;
        # per-epoch slices are contiguous because ev_epoch is sorted.
        dep_t = trace.departure_s[arr_order]
        dep_pos = arr_order[dep_t < trace.horizon_s]
        n_departures = int(dep_pos.size)
        ev_time = np.concatenate(
            (trace.arrival_s[arr_order], trace.departure_s[dep_pos])
        )
        ev_kind = np.concatenate((
            np.full(n_arrivals, _ARRIVE, dtype=np.int8),
            np.full(n_departures, _DEPART, dtype=np.int8),
        ))
        ev_jobpos = np.concatenate((arr_order, dep_pos))
        order = np.lexsort((trace.job_id[ev_jobpos], ev_kind, ev_time))
        ev_time = ev_time[order]
        ev_kind = ev_kind[order]
        ev_jobpos = ev_jobpos[order]
        ev_epoch = np.searchsorted(ends, ev_time, side="right")
        ev_app = app_of_job[ev_jobpos]
        n_events = int(ev_time.size)
        ev_splits = np.searchsorted(ev_epoch,
                                    np.arange(n_epochs + 1)).tolist()

        # Arrival/departure totals are decision-independent (a shed job
        # still departs from the baseline pool), so the running-jobs
        # series is precomputable.
        is_arrival_ev = ev_kind == _ARRIVE
        arr_per_epoch = np.bincount(arr_epoch, minlength=n_epochs)
        dep_per_epoch = np.bincount(
            ev_epoch[~is_arrival_ev], minlength=n_epochs
        )
        running = np.cumsum(arr_per_epoch - dep_per_epoch)
        cum_arr = np.cumsum(arr_per_epoch)
        cum_dep = np.cumsum(dep_per_epoch)
        running_gauge = gauge("serve.engine.running")

        run_len = 1 if adaptation is not None else n_epochs
        cap_of_job = np.zeros(n_jobs, dtype=np.int64)
        shed_of_job = np.zeros(n_jobs, dtype=bool)
        shed_per_epoch = np.zeros(n_epochs, dtype=np.int64)
        shed_running = 0
        pool_positions: list[list[np.ndarray]] = [[] for _ in range(n_apps)]
        # Caps never exceed the context supply, so one state bound
        # serves every pool; kernel outputs are bound-independent.
        specs = [(self.servers_per_app, threads + 2)] * n_apps
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
                    for e in range(r0, r1):
                        batch = stream.batch(e)
                        self.decider.begin_epoch_batch(batch)
                        decisions = self.decider.decide_batch(batch)
                        cap_e = np.minimum(decisions.max_safe_instances,
                                           threads)
                        cap_e[decisions.shed] = 0
                        jobpos_e = arr_order[epoch_starts[e]:
                                             epoch_starts[e + 1]]
                        cap_of_job[jobpos_e] = cap_e
                        shed_of_job[jobpos_e] = decisions.shed
                        shed_per_epoch[e] = np.count_nonzero(decisions.shed)

                # Only events that can touch pool state go through the
                # kernels: arrivals allowed >= 1 instance, and their
                # departures. Everything else is baseline by construction.
                e0, e1 = ev_splits[r0], ev_splits[r1]
                jp = ev_jobpos[e0:e1]
                interesting = cap_of_job[jp] >= 1
                app_r = ev_app[e0:e1]
                kind_r = ev_kind[e0:e1]
                epoch_r = ev_epoch[e0:e1]
                runs = []
                for p in range(n_apps):
                    local = np.flatnonzero(interesting & (app_r == p))
                    pool_positions[p].append(local + e0)
                    jp_p = jp[local]
                    runs.append((
                        kind_r[local] == _ARRIVE, jp_p,
                        trace.profile_idx[jp_p], cap_of_job[jp_p],
                        np.searchsorted(epoch_r[local],
                                        np.arange(r0, r1 + 1)),
                    ))
                with span("serve.place"):
                    if pool is not None:
                        run_groups = pool.step(runs)
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
                            for p in range(n_apps)
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
                pool_outputs = pool.finish()
            else:
                pool_outputs = [kernel.result() for kernel in kernels]
        finally:
            if pool is not None:
                pool.close()

        # Scatter kernel outputs into the global event columns and batch
        # the counters.
        server_col = np.full(n_events, -1, dtype=np.int64)
        placement_col = np.ones(n_events, dtype=np.int8)
        placement_col[shed_of_job[ev_jobpos] & is_arrival_ev] = 2
        instances_col = np.zeros(n_events, dtype=np.int64)
        for p in range(n_apps):
            idx = np.concatenate(pool_positions[p])
            out = pool_outputs[p]
            base = p * self.servers_per_app
            server_col[idx] = np.where(
                out.server >= 0, out.server + base, -1
            )
            placement_col[idx] = out.placement
            instances_col[idx] = out.instances_after

        colocated_ev = is_arrival_ev & (placement_col == 0)
        colocated_placed = int(np.count_nonzero(colocated_ev))
        counter("serve.engine.epochs").inc(n_epochs)
        counter("serve.engine.events").inc(n_events)
        counter("serve.engine.arrivals").inc(n_arrivals)
        counter("serve.engine.departures").inc(n_departures)
        counter("serve.engine.colocated").inc(colocated_placed)
        counter("serve.engine.baseline_placed").inc(
            n_arrivals - colocated_placed
        )
        if obs_trace.active() is not None:
            colocated_per_epoch = np.bincount(
                ev_epoch[colocated_ev], minlength=n_epochs
            )
            for e in range(n_epochs):
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

        events = EventTable(
            time_s=ev_time,
            kind=ev_kind,
            job_id=trace.job_id[ev_jobpos],
            profile_idx=trace.profile_idx[ev_jobpos],
            app_idx=ev_app,
            server=server_col,
            placement=placement_col,
            instances_after=instances_col,
            profiles=[p.name for p in trace.pool],
            apps=[a.name for a in self.apps],
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
            shed=shed_running,
            events=events,
            windows=tuple(windows),
        )
