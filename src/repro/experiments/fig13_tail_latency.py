"""Figure 13: 90th-percentile latency prediction accuracy.

The tail model (Equation 6) is trained from Ruler co-runs — profiled
degradation plus the percentile latency the discrete-event queue shows at
the degraded service rate — and evaluated on co-locations with the SPEC
testing set: given the measured degradation, predict t90 and compare to
the queue's measured t90. Web-Search and Data-Caching are evaluated
(Data-Serving and Graph-Analytics do not report percentile latency).
Paper: 4.61% and 6.17% average error.
"""

from __future__ import annotations

import zlib

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.context import smite_cloud, snb_simulator
from repro.queueing.des import simulate_fcfs_mm1
from repro.scheduler.scaleout import fit_tail_model
from repro.smt.simulator import ContextPlacement
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even

__all__ = ["run"]

_PERCENTILE = 0.90


def run(config: ExperimentConfig) -> ExperimentResult:
    """Figure 13: predicted vs measured tail latency under co-location."""
    simulator = snb_simulator()
    predictor = smite_cloud("smt")
    rows = []
    metrics: dict[str, float] = {}
    apps = [w for w in cloudsuite_apps() if w.reports_percentile_latency]
    batch_apps = spec_even()[:6] if config.fast else spec_even()
    threads = simulator.machine.cores
    # The measurement grid below reads each batch app's solo run and
    # every server load from unloaded to full: one batched solve.
    simulator.prefetch([
        *([ContextPlacement(batch, core=0)] for batch in batch_apps),
        *(simulator.server_placements(app.profile, batch, instances=k,
                                      mode="smt")
          for app in apps for batch in batch_apps
          for k in range(threads + 1)),
    ])

    for app in apps:
        tail_model = fit_tail_model(
            simulator, predictor, app,
            percentile=_PERCENTILE, des_jobs=config.des_jobs,
            seed=config.seed,
        )
        errors = []
        for batch in batch_apps:
            for instances in range(1, threads + 1):
                degradation = simulator.measure_server_degradation(
                    app.profile, batch, instances=instances, mode="smt",
                )
                degradation = min(max(degradation, 0.0), 0.95)
                degraded_mu = (1.0 - degradation) * app.service_rate_hz
                if degraded_mu <= app.arrival_rate_hz * 1.02:
                    continue  # queue (near-)unstable: latency unbounded
                seed = (config.seed
                        + zlib.crc32(f"{app.name}|{batch.name}|{instances}"
                                     .encode()) % 100_000)
                measured = simulate_fcfs_mm1(
                    app.arrival_rate_hz, degraded_mu,
                    jobs=config.des_jobs, seed=seed,
                ).percentile(_PERCENTILE)
                predicted = tail_model.predict_latency(degradation)
                errors.append(abs(predicted - measured) / measured)
        mean_error = sum(errors) / len(errors)
        rows.append((app.name, tail_model.baseline_latency(),
                     len(errors), mean_error))
        metrics[f"{app.name}_tail_error"] = mean_error
        metrics[f"{app.name}_fit_r2"] = tail_model.fit_r_squared
    metrics["paper_web_search_error"] = 0.0461
    metrics["paper_data_caching_error"] = 0.0617
    return ExperimentResult(
        experiment_id="fig13",
        title="90th-percentile latency prediction accuracy",
        paper_claim="the queueing model captures the degradation-to-tail "
                    "relationship: 4.61% (Web-Search) and 6.17% "
                    "(Data-Caching) average error",
        headers=("application", "baseline t90 (s)", "co-locations",
                 "mean relative error"),
        rows=tuple(rows),
        metrics=metrics,
    )
