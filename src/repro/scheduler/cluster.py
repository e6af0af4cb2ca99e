"""The 4,000-server cluster model.

Each server runs one latency-sensitive CloudSuite application, half-loaded
(one thread per core; the sibling SMT contexts idle). A seeded stream of
batch applications arrives, one candidate per server; the active policy
decides how many instances to admit, and the simulator provides the
actual degradation each decision causes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.tail import TailLatencyModel
from repro.errors import SchedulingError
from repro.obs import counter, span
from repro.scheduler.policies import ColocationPolicy
from repro.scheduler.qos import QosTarget
from repro.smt.simulator import Simulator
from repro.workloads.cloudsuite import LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile

__all__ = ["ServerState", "Cluster"]


@dataclass
class ServerState:
    """One server: its latency app, batch candidate, and the decision."""

    index: int
    latency_app: LatencySensitiveWorkload
    batch_candidate: WorkloadProfile
    instances: int = 0
    actual_degradation: float = 0.0

    @property
    def is_colocated(self) -> bool:
        return self.instances > 0


@dataclass
class Cluster:
    """A fixed fleet of servers plus the machinery to apply policies."""

    simulator: Simulator
    servers: list[ServerState] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        simulator: Simulator,
        latency_apps: Sequence[LatencySensitiveWorkload],
        batch_pool: Sequence[WorkloadProfile],
        *,
        servers_per_app: int = 1000,
        seed: int = 42,
    ) -> "Cluster":
        """The paper's layout: ``servers_per_app`` servers per latency app.

        Batch candidates are drawn uniformly (seeded) from the pool — the
        arrival stream the cluster scheduler sees.
        """
        if not latency_apps:
            raise SchedulingError("cluster needs at least one latency app")
        if not batch_pool:
            raise SchedulingError("cluster needs a batch-application pool")
        if servers_per_app < 1:
            raise SchedulingError("servers_per_app must be >= 1")
        rng = np.random.default_rng(seed)
        servers = []
        index = 0
        for app in latency_apps:
            for _ in range(servers_per_app):
                batch = batch_pool[int(rng.integers(0, len(batch_pool)))]
                servers.append(ServerState(
                    index=index, latency_app=app, batch_candidate=batch,
                ))
                index += 1
        return cls(simulator=simulator, servers=servers)

    # ------------------------------------------------------------------

    @property
    def threads_per_server(self) -> int:
        """Latency threads per server (one per core, half-loading it)."""
        return self.simulator.machine.cores

    @property
    def contexts_per_server(self) -> int:
        return self.simulator.machine.total_contexts

    def apply_policy(
        self,
        policy: ColocationPolicy,
        target: QosTarget,
        *,
        tail_models: dict[str, TailLatencyModel] | None = None,
    ) -> None:
        """Run the policy over every server and record actual outcomes.

        Decisions run strictly in server order (policies may be stateful),
        but the solves behind them are batched: the policy prefetches
        what its decisions read over the fleet's distinct (app,
        candidate) pairs up front (:meth:`ColocationPolicy.prefetch`),
        and the outcome measurements are prefetched between the decision
        and measurement passes. With 4,000 servers drawing from a
        small app x candidate pool, this collapses thousands of
        ``measure_server_degradation`` calls into a few batch solves, and
        the simulator's measurement memo answers every repeat of an
        (app, candidate, instances) measurement with one lookup, so
        simulator requests scale with the distinct combinations, not with
        the number of servers.
        """
        with span("cluster.apply_policy"):
            policy.prefetch(
                list(dict.fromkeys(
                    (s.latency_app, s.batch_candidate) for s in self.servers
                )),
                self.threads_per_server,
            )
            decisions: list[int] = []
            for server in self.servers:
                tail_model = None
                if tail_models is not None:
                    tail_model = tail_models.get(server.latency_app.name)
                    if tail_model is None:
                        raise SchedulingError(
                            f"no tail model for {server.latency_app.name}"
                        )
                decisions.append(policy.decide(
                    server.latency_app,
                    server.batch_candidate,
                    target,
                    max_instances=self.threads_per_server,
                    tail_model=tail_model,
                ))
            counter("scheduler.cluster.decisions").inc(len(decisions))
            self._prefetch_outcomes(decisions)
            violations = 0
            for server, instances in zip(self.servers, decisions):
                server.instances = instances
                if instances == 0:
                    server.actual_degradation = 0.0
                else:
                    server.actual_degradation = (
                        self.simulator.measure_server_degradation(
                            server.latency_app.profile,
                            server.batch_candidate,
                            instances=instances,
                            mode="smt",
                        )
                    )
                    tail_model = (tail_models.get(server.latency_app.name)
                                  if tail_models is not None else None)
                    if not target.is_met(server.actual_degradation,
                                         tail_model):
                        violations += 1
            counter("scheduler.cluster.colocations").inc(
                sum(1 for k in decisions if k > 0))
            counter("scheduler.cluster.instances").inc(sum(decisions))
            counter("scheduler.cluster.qos_violations").inc(violations)

    def _prefetch_outcomes(self, decisions: Sequence[int]) -> None:
        """Batch-solve the measurements the measurement pass will read."""
        self.simulator.prefetch_readings(servers=(
            (s.latency_app.profile, s.batch_candidate, k, "smt", None)
            for s, k in zip(self.servers, decisions)
        ))

    # ------------------------------------------------------------------

    @property
    def total_instances(self) -> int:
        return sum(s.instances for s in self.servers)

    @property
    def baseline_busy_contexts(self) -> int:
        return len(self.servers) * self.threads_per_server

    def utilization(self) -> float:
        """Busy contexts over total contexts, cluster-wide."""
        busy = self.baseline_busy_contexts + self.total_instances
        return busy / (len(self.servers) * self.contexts_per_server)

    def utilization_improvement(self) -> float:
        """Relative gain over the no-co-location baseline (paper's metric)."""
        return self.total_instances / self.baseline_busy_contexts

    def reset(self) -> None:
        for server in self.servers:
            server.instances = 0
            server.actual_degradation = 0.0
