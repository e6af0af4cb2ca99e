"""Per-event reference replay: the oracle the serving engine is held to.

:class:`ScalarServingEngine` replays a trace one event at a time off a
heap, deciding each arrival with :meth:`Decider.decide`, bin-packing it
onto live :class:`OnlineServer` objects with a linear scan, and scoring
the fleet from those objects at every epoch end. It shares the engine's
event-ordering contract (ascending ``(time, kind, job id)`` with
departures ranked before arrivals, epochs assigned by one
``searchsorted`` over the epoch grid), its fleet scoring, its telemetry
tick and its adaptation hook, so for the same trace it must produce the
event log, SLO series, books and audit residuals that the vectorized
and sharded replays of :class:`~repro.serve.engine.ServingEngine`
produce. The parity suites compare the two.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import counter, gauge, span
from repro.obs import trace as obs_trace
from repro.serve.engine import (
    _ARRIVE,
    _DEPART,
    ReplayOutcome,
    ServingEngine,
    _Group,
)
from repro.serve.events import EventRecord
from repro.serve.service import Candidate
from repro.serve.traffic import Trace, TraceJob
from repro.workloads.cloudsuite import LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile


@dataclass
class OnlineServer:
    """Live state of one server: its latency service plus batch guests.

    Field names mirror ``scheduler.cluster.ServerState`` so
    :func:`repro.serve.slo.window_violation_stats` can score either.
    """

    index: int
    latency_app: LatencySensitiveWorkload
    batch_profile: WorkloadProfile | None = None
    resident_jobs: dict[int, None] = field(default_factory=dict)
    actual_degradation: float = 0.0

    @property
    def instances(self) -> int:
        """Number of batch instances currently on this server."""
        return len(self.resident_jobs)

    @property
    def is_colocated(self) -> bool:
        """Whether any sibling SMT context is running batch work."""
        return self.instances > 0


class ScalarServingEngine(ServingEngine):
    """:class:`ServingEngine` whose :meth:`replay` is the per-event loop."""

    def replay(self, trace: Trace) -> ReplayOutcome:
        """Run one trace to its horizon through the per-event loop."""
        # profile indices are relative to this trace's pool
        self._deg_idx = {}
        self._pred_idx = {}
        self.servers = [
            OnlineServer(
                index=i, latency_app=self.apps[i // self.servers_per_app],
            )
            for i in range(self.n_servers)
        ]
        with span("serve.replay"):
            return self._replay_scalar(trace)

    def _route(self, job: TraceJob) -> LatencySensitiveWorkload:
        """Deterministic round-robin routing of jobs to service pools."""
        return self.apps[job.job_id % len(self.apps)]

    def _pick_server(
        self, app: LatencySensitiveWorkload, profile: WorkloadProfile,
        safe_instances: int,
    ) -> OnlineServer | None:
        """Best server in the pool, or None for the baseline pool.

        Bin-packs: same-profile servers first (fullest, then lowest
        index), then an idle server — never above the decision's safe
        count or the context supply. The engine's placement kernel
        (:class:`~repro.serve.shard.PoolKernel`) implements exactly this
        scan.
        """
        if safe_instances < 1:
            return None
        cap = min(safe_instances, self.threads_per_server)
        best: OnlineServer | None = None
        idle: OnlineServer | None = None
        for server in self._pool_servers(app.name):
            if server.batch_profile is None:
                if idle is None:
                    idle = server
                continue
            if server.batch_profile.name != profile.name:
                continue
            if server.instances + 1 > cap:
                continue
            if best is None or server.instances > best.instances:
                best = server
        return best if best is not None else idle

    def _pool_servers(self, app_name: str) -> list[OnlineServer]:
        for i, app in enumerate(self.apps):
            if app.name == app_name:
                lo = i * self.servers_per_app
                return self.servers[lo:lo + self.servers_per_app]
        raise ConfigurationError(f"unknown service pool {app_name}")

    def _scalar_groups(
        self, profile_index: dict[str, int]
    ) -> list[_Group]:
        """Aggregate live server state into canonical scoring groups."""
        tally: dict[tuple[int, int, int], int] = {}
        for server in self.servers:
            if not server.is_colocated:
                continue
            assert server.batch_profile is not None
            key = (
                server.index // self.servers_per_app,
                profile_index[server.batch_profile.name],
                server.instances,
            )
            tally[key] = tally.get(key, 0) + 1
        return [
            (a, p, inst, count)
            for (a, p, inst), count in sorted(tally.items())
        ]

    def _replay_scalar(self, trace: Trace) -> ReplayOutcome:
        n_epochs, ends = self._epoch_grid(trace.horizon_s)
        arr_order, arr_epoch = self._arrival_plan(trace, ends)
        epoch_starts = np.searchsorted(arr_epoch, np.arange(n_epochs + 1))
        jobs = trace.jobs
        profile_index = {p.name: i for i, p in enumerate(trace.pool)}
        heap: list[tuple[float, int, int, TraceJob]] = [
            (jobs[i].arrival_s, _ARRIVE, jobs[i].job_id, jobs[i])
            for i in arr_order.tolist()
        ]
        heapq.heapify(heap)

        events_c = counter("serve.engine.events")
        arrivals_c = counter("serve.engine.arrivals")
        departures_c = counter("serve.engine.departures")
        colocated_c = counter("serve.engine.colocated")
        baseline_c = counter("serve.engine.baseline_placed")
        epochs_c = counter("serve.engine.epochs")

        events: list[EventRecord] = []
        placed_on: dict[int, OnlineServer | None] = {}
        arrivals = departures = colocated_placed = baseline_placed = shed = 0

        for epoch in range(n_epochs):
            epoch_end = float(ends[epoch])
            s0, s1 = int(epoch_starts[epoch]), int(epoch_starts[epoch + 1])
            candidates: list[Candidate] = [
                (self._route(jobs[i]), jobs[i].profile,
                 self.threads_per_server)
                for i in arr_order[s0:s1].tolist()
            ]
            epochs_c.inc()
            self.decider.begin_epoch(candidates)
            epoch_events = 0
            epoch_arrivals = 0
            epoch_departures = 0
            epoch_colocated = 0
            epoch_baseline = 0
            epoch_sheds = 0
            while heap and heap[0][0] < epoch_end:
                time_s, kind, job_id, job = heapq.heappop(heap)
                epoch_events += 1
                if kind == _ARRIVE:
                    arrivals += 1
                    epoch_arrivals += 1
                    app = self._route(job)
                    decision = self.decider.decide(
                        app, job.profile,
                        max_instances=self.threads_per_server,
                    )
                    server = None
                    if not decision.shed:
                        server = self._pick_server(
                            app, job.profile,
                            decision.max_safe_instances,
                        )
                    placed_on[job.job_id] = server
                    if server is not None:
                        server.batch_profile = job.profile
                        server.resident_jobs[job.job_id] = None
                        colocated_placed += 1
                        epoch_colocated += 1
                        placement = "colocated"
                    else:
                        baseline_placed += 1
                        epoch_baseline += 1
                        placement = "shed" if decision.shed else "baseline"
                        if decision.shed:
                            shed += 1
                            epoch_sheds += 1
                    heapq.heappush(
                        heap,
                        (job.departure_s, _DEPART, job.job_id, job),
                    )
                    events.append(EventRecord(
                        time_s=time_s, kind="arrive", job_id=job_id,
                        profile=job.profile.name, app=app.name,
                        server=server.index if server else -1,
                        placement=placement,
                        instances_after=(
                            server.instances if server else 0
                        ),
                    ))
                else:
                    departures += 1
                    epoch_departures += 1
                    server = placed_on.pop(job.job_id)
                    if server is not None:
                        del server.resident_jobs[job.job_id]
                        if not server.resident_jobs:
                            server.batch_profile = None
                    events.append(EventRecord(
                        time_s=time_s, kind="depart", job_id=job_id,
                        profile=job.profile.name,
                        app=self._route(job).name,
                        server=server.index if server else -1,
                        placement=(
                            "colocated" if server else "baseline"
                        ),
                        instances_after=(
                            server.instances if server else 0
                        ),
                    ))
            events_c.inc(epoch_events)
            arrivals_c.inc(epoch_arrivals)
            departures_c.inc(epoch_departures)
            colocated_c.inc(epoch_colocated)
            baseline_c.inc(epoch_baseline)
            gauge("serve.engine.running").set(float(len(placed_on)))
            obs_trace.counter_value("serve.engine.running",
                                    float(len(placed_on)),
                                    sim_time_s=epoch_end)
            groups = self._scalar_groups(profile_index)
            self._score_fleet(
                epoch_end, groups, trace.pool,
                sheds=epoch_sheds, requests=epoch_arrivals,
            )
            self._telemetry_tick(epoch_end, arrivals, departures, shed)
            # Adaptation steps at the epoch boundary — after this
            # epoch's scoring, before the next epoch's decisions — the
            # point where the engine swaps too. A swap drops the
            # prediction memo (measured degradations are
            # coefficient-free and survive).
            if (self.adaptation is not None
                    and self.adaptation.end_epoch(epoch_end)):
                self._pred_idx = {}

        still_placed = len(placed_on)
        windows = self.slo.finish() if self.slo is not None else ()
        return ReplayOutcome(
            policy=self.decider.name,
            trace_kind=trace.kind,
            seed=trace.seed,
            horizon_s=trace.horizon_s,
            arrivals=arrivals,
            departures=departures,
            still_placed=still_placed,
            colocated_placed=colocated_placed,
            baseline_placed=baseline_placed,
            shed=shed,
            events=tuple(events),
            windows=tuple(windows),
        )
