"""The scale-out study driver (Sections IV-C and IV-D).

``ScaleOutStudy`` wires the pieces together: build the 4,000-server
cluster, fit the SMiTe predictor on the training half of SPEC, fit
per-app tail-latency models from Ruler co-runs (degradation measured on
the server topology, percentile latency "measured" by the discrete-event
queue), then run each policy at each QoS target and collect utilization
and violation metrics.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.predictor import SMiTe
from repro.core.tail import TailLatencyModel
from repro.errors import SchedulingError
from repro.obs import counter
from repro.queueing.des import simulate_fcfs_mm1
from repro.rulers.suite import intensity_sweep
from repro.scheduler.cluster import Cluster
from repro.scheduler.metrics import ScaleOutResult, violation_stats
from repro.scheduler.policies import (
    NoColocationPolicy,
    OraclePolicy,
    RandomPolicy,
    SMiTePolicy,
)
from repro.scheduler.qos import QosTarget
from repro.smt.simulator import Simulator
from repro.workloads.cloudsuite import LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile

__all__ = ["ScaleOutStudy", "fit_tail_model", "random_counts_for_gain"]


def fit_tail_model(
    simulator: Simulator,
    predictor: SMiTe,
    workload: LatencySensitiveWorkload,
    *,
    percentile: float = 0.90,
    sweep_points: int = 4,
    des_jobs: int = 60_000,
    seed: int = 7,
) -> TailLatencyModel:
    """Train Equation 6 from Ruler co-runs (the paper's protocol).

    For each Ruler at several intensities, measure the workload's
    server-level degradation and the resulting percentile latency (from
    the discrete-event queue running at the degraded service rate), then
    fit the reciprocal-linear model.
    """
    threads = simulator.machine.cores
    degradations: list[float] = [0.0]
    latencies: list[float] = []
    baseline = simulate_fcfs_mm1(
        workload.arrival_rate_hz, workload.service_rate_hz,
        jobs=des_jobs, seed=seed,
    )
    latencies.append(baseline.percentile(percentile))
    sweeps = {
        dimension: intensity_sweep(predictor.suite[dimension],
                                   points=sweep_points)
        for dimension in predictor.suite
    }
    rulers = [ruler.profile for sweep in sweeps.values() for ruler in sweep]
    # The fully loaded server against each swept Ruler: one batched solve.
    simulator.prefetch_readings(servers=[
        (workload.profile, ruler, threads, "smt", None) for ruler in rulers
    ])
    for dimension, sweep in sweeps.items():
        for ruler in sweep:
            degradation = simulator.measure_server_degradation(
                workload.profile, ruler.profile, instances=threads, mode="smt",
            )
            degradation = min(max(degradation, 0.0), 0.95)
            degraded_mu = (1.0 - degradation) * workload.service_rate_hz
            if degraded_mu <= workload.arrival_rate_hz:
                # Ruler pressure drove this queue unstable: the point has
                # no steady-state latency to fit against.
                counter("scheduler.tail.unstable_skips").inc()
                continue
            run = simulate_fcfs_mm1(
                workload.arrival_rate_hz, degraded_mu,
                jobs=des_jobs,
                seed=seed + zlib.crc32(
                    f"{dimension.name}|{ruler.intensity:.3f}".encode()
                ) % 1000,
            )
            degradations.append(degradation)
            latencies.append(run.percentile(percentile))
    # The solo point is free; Eq. 6 needs at least 3 stable *co-run*
    # points on top of it or the reciprocal-linear fit is unconstrained.
    stable_points = len(degradations) - 1
    if stable_points < 3:
        raise SchedulingError(
            f"only {stable_points} stable Ruler points for {workload.name}; "
            "need >= 3 to fit the tail model (loosen the sweep or raise "
            "the service rate)"
        )
    return TailLatencyModel(percentile=percentile).fit(degradations, latencies)


def random_counts_for_gain(
    total_instances: int,
    n_servers: int,
    max_per_server: int,
    *,
    seed: int = 13,
) -> dict[int, int]:
    """Random per-server instance counts summing to ``total_instances``.

    This is how the Random policy is driven to exactly the utilization
    gain a reference policy achieved.
    """
    if total_instances > n_servers * max_per_server:
        raise SchedulingError("cannot place that many instances")
    # A seeded shuffle of every available (server, slot) pair, keeping the
    # first ``total_instances``: one pass, no rejection loop, and every
    # feasible assignment remains equally likely.
    rng = np.random.default_rng(seed)
    slots = np.repeat(np.arange(n_servers), max_per_server)
    rng.shuffle(slots)
    filled = np.bincount(slots[:total_instances], minlength=n_servers)
    return {i: int(filled[i]) for i in range(n_servers)}


@dataclass
class ScaleOutStudy:
    """Run the full policy x QoS-target grid over one cluster."""

    simulator: Simulator
    predictor: SMiTe
    latency_apps: Sequence[LatencySensitiveWorkload]
    batch_pool: Sequence[WorkloadProfile]
    servers_per_app: int = 1000
    seed: int = 42
    tail_percentile: float = 0.90
    _tail_models: dict[str, TailLatencyModel] = field(default_factory=dict)

    def build_cluster(self) -> Cluster:
        return Cluster.build(
            self.simulator,
            self.latency_apps,
            self.batch_pool,
            servers_per_app=self.servers_per_app,
            seed=self.seed,
        )

    def tail_models(self) -> dict[str, TailLatencyModel]:
        """Per-app Equation 6 models, fitted lazily and cached."""
        if not self._tail_models:
            for app in self.latency_apps:
                self._tail_models[app.name] = fit_tail_model(
                    self.simulator, self.predictor, app,
                    percentile=self.tail_percentile,
                )
        return self._tail_models

    def run(
        self,
        targets: Sequence[QosTarget],
        *,
        use_tail_models: bool = False,
    ) -> list[ScaleOutResult]:
        """Evaluate baseline, SMiTe, Oracle, and gain-matched Random."""
        results: list[ScaleOutResult] = []
        tail_models = self.tail_models() if use_tail_models else None
        cluster = self.build_cluster()
        for target in targets:
            per_policy_instances: dict[str, int] = {}
            for policy in (NoColocationPolicy(),
                           SMiTePolicy(self.predictor),
                           OraclePolicy(self.simulator)):
                cluster.reset()
                cluster.apply_policy(policy, target, tail_models=tail_models)
                per_policy_instances[policy.name] = cluster.total_instances
                results.append(ScaleOutResult(
                    policy=policy.name,
                    target=target,
                    utilization_improvement=cluster.utilization_improvement(),
                    violations=violation_stats(cluster, target,
                                               tail_models=tail_models),
                ))
            # Random, driven to SMiTe's exact utilization gain. The seed
            # is derived from the target so every grid cell draws an
            # independent layout (a shared seed would correlate the
            # violation counts across targets).
            target_tag = f"{target.metric.value}|{target.level:.6f}"
            random_policy = RandomPolicy(random_counts_for_gain(
                per_policy_instances["smite"],
                len(cluster.servers),
                cluster.threads_per_server,
                seed=self.seed + 1 + zlib.crc32(target_tag.encode()) % 100_000,
            ))
            cluster.reset()
            cluster.apply_policy(random_policy, target, tail_models=tail_models)
            results.append(ScaleOutResult(
                policy=random_policy.name,
                target=target,
                utilization_improvement=cluster.utilization_improvement(),
                violations=violation_stats(cluster, target,
                                           tail_models=tail_models),
            ))
        return results
