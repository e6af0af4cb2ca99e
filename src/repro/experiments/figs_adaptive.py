"""Supplementary figure: drift-triggered recalibration on a phase change.

The paper's model is fit once, offline, against a profile database that
is assumed fresh. Warehouse workloads are not so polite: binaries get
redeployed and a job named ``sphinx`` may suddenly behave like a
different program while the profile database still describes the old
build. This experiment manufactures exactly that failure: a third of
the way through the trace, every batch workload in the pool is swapped
for a look-alike (one turns much *more* contentious, two turn much
*less*), while the predictor's characterization cache still holds the
pre-shift profiles
(:meth:`~repro.core.predictor.SMiTe.seed_characterization`).

A static serving run rides the stale model to the end: it keeps placing
the hot impostor at the old generous cap (QoS violations every window)
and keeps the cold impostors at the old conservative cap (forgone
utilization). The adaptive run watches the same audited residual stream
through :mod:`repro.adapt`, detects the drift, refits the Sen x Con
regression online, and hot-swaps coefficients at epoch boundaries -- it
must finish with strictly fewer violated server-windows at
equal-or-better utilization gain.

The scenario is built from the safe-cap structure at the 88% QoS
target, not from raw contentiousness: the *cold* impostors are chosen
so their true curves saturate at the per-server instance limit with
margin below the budget (an aggressively learned model cannot ride them
into the violation edge), while the *hot* impostor is the mildest of
the low-cap profiles (its under-prediction window while the refitter is
still exploring freshly unlocked instance counts stays small).
"""

from __future__ import annotations

from functools import lru_cache

from repro.adapt import (
    AdaptationController,
    DriftPolicy,
    ModelRegistry,
    OnlineRefitter,
)
from repro.core.predictor import SMiTe
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.context import snb_simulator
from repro.obs import PredictionAudit
from repro.obs.alerts import AlertEngine, burn_rate_rule, drift_rule
from repro.scheduler.qos import QosTarget
from repro.serve import (
    PredictionService,
    ReplayOutcome,
    ServingEngine,
    WindowedSlo,
    phase_shift_trace,
    poisson_trace,
)
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even, spec_odd

__all__ = ["run"]

_QOS_LEVEL = 0.88
_EPOCH_S = 300.0
_WINDOW_S = 1_200.0
_DRIFT_BOUND = 0.03
#: SLO error budget on the violated-server-window fraction; the
#: multi-window burn-rate alert fires when both the fast (1-window) and
#: slow (2-window) means burn it at twice the sustainable rate. Sized so
#: the alert trips on the first post-shift window close -- i.e. before
#: the drift-triggered coefficient swap that follows it -- and resolves
#: once recalibration pulls the violation rate back under the line.
_ALERT_BUDGET = 0.03
_BURN_FACTOR = 2.0
#: Largest batch-instance count the safe-cap ranking considers.
_MAX_INSTANCES = 6


def _safe_cap(predictor: SMiTe, apps, profile, budget: float,
              max_instances: int = _MAX_INSTANCES) -> int:
    """Largest batch count every latency app tolerates within budget."""
    cap = 0
    for count in range(1, max_instances + 1):
        worst = max(
            predictor.predict_server(app.profile, profile, instances=count)
            for app in apps
        )
        if worst > budget:
            break
        cap = count
    return cap


def _mean_contentiousness(predictor: SMiTe, profile) -> float:
    char = predictor.characterization(profile)
    values = [char.contentiousness[d] for d in char.dimensions]
    return sum(values) / len(values)


@lru_cache(maxsize=None)
def _study(fast: bool, seed: int) -> dict[str, object]:
    simulator = snb_simulator()
    predictor = SMiTe(simulator).fit(
        spec_odd()[:8] if fast else spec_odd(), mode="smt",
    )
    apps = cloudsuite_apps()[:2] if fast else cloudsuite_apps()
    candidates = spec_even()[:6] if fast else spec_even()

    target = QosTarget.average(_QOS_LEVEL)
    budget = target.degradation_budget()
    # Ranking reads every app's Ruler characterization and every
    # candidate's: batch-solve them up front instead of one Ruler
    # co-run per miss.
    predictor.characterize_all([app.profile for app in apps])
    predictor.prefetch_server(
        [app.profile for app in apps], candidates,
        instance_counts=range(1, _MAX_INSTANCES + 1),
    )
    ranked = sorted(
        candidates,
        key=lambda p: (_safe_cap(predictor, apps, p, budget),
                       _mean_contentiousness(predictor, p)),
    )
    # Low-cap half: contentious profiles the scheduler places sparingly.
    # High-cap half: mild profiles whose true curves saturate at the
    # instance limit with margin below the budget.
    lows, highs = ranked[:3], ranked[-3:]
    # Hot impostor = the *mildest* of the low-cap profiles, so the
    # learned model's extrapolation error at freshly unlocked counts is
    # bounded; the other lows anchor the cold side of the swap.
    hot_impostor, base_cold1, base_cold2 = lows[0], lows[1], lows[2]
    # Hot base = the high-cap profile closest to the budget edge (its
    # generous stale cap is the one the hot impostor then abuses); the
    # fully saturating highs arrive as cold impostors.
    base_hot, cold_impostor1, cold_impostor2 = highs[0], highs[1], highs[2]
    pool = [base_hot, base_cold1, base_cold2]

    horizon_s = 14_400.0 if fast else 43_200.0
    shift_s = horizon_s / 3
    base = poisson_trace(pool, rate_per_s=0.02, horizon_s=horizon_s,
                         seed=seed)
    trace = phase_shift_trace(
        base,
        {
            base_hot.name: hot_impostor,
            base_cold1.name: cold_impostor1,
            base_cold2.name: cold_impostor2,
        },
        shift_s=shift_s,
    )
    # The stale profile database: the impostors are *scored* by the
    # simulator as themselves, but *predicted* from the characterizations
    # of the workloads they replaced.
    for impostor, replaced in (
        (hot_impostor, base_hot),
        (cold_impostor1, base_cold1),
        (cold_impostor2, base_cold2),
    ):
        predictor.seed_characterization(
            impostor, predictor.characterization(replaced))

    outcomes: dict[str, ReplayOutcome] = {}
    registry_snapshot: dict[str, object] = {}
    alert_snapshots: dict[str, dict[str, object]] = {}
    swap_epochs: list[float] = []
    for policy in ("static", "adaptive"):
        audit = PredictionAudit()
        alerts = AlertEngine((
            burn_rate_rule(budget=_ALERT_BUDGET, factor=_BURN_FACTOR,
                           fast_windows=1, slow_windows=2),
            drift_rule(bound=_DRIFT_BOUND),
        ))
        slo = WindowedSlo(_WINDOW_S, target, audit=audit, alerts=alerts)
        service = PredictionService(predictor, target)
        controller = None
        if policy == "adaptive":
            refitter = OnlineRefitter(predictor, window=64,
                                      holdout_every=4, min_samples=12)
            registry = ModelRegistry(service, predictor)
            controller = AdaptationController(
                refitter, registry, slo,
                policy=DriftPolicy(drift_bound=_DRIFT_BOUND,
                                   hysteresis=1, cooldown=1),
            )
        engine = ServingEngine(
            simulator, apps, service,
            servers_per_app=3, epoch_s=_EPOCH_S, window_s=_WINDOW_S,
            slo=slo, audit=audit, adaptation=controller,
        )
        outcomes[policy] = engine.replay(trace)
        alert_snapshots[policy] = alerts.snapshot()
        if policy == "adaptive":
            registry_snapshot = registry.snapshot()
            swap_epochs = [entry.swapped_epoch_s
                           for entry in registry.history
                           if entry.swapped_epoch_s is not None]
    return {"outcomes": outcomes, "registry": registry_snapshot,
            "alerts": alert_snapshots, "swap_epochs": swap_epochs,
            "shift_s": shift_s, "hot": hot_impostor.name,
            "cold": f"{cold_impostor1.name}, {cold_impostor2.name}"}


def _violated_server_windows(outcome: ReplayOutcome) -> int:
    return sum(w.violations.violated_servers for w in outcome.windows)


def run(config: ExperimentConfig) -> ExperimentResult:
    """Supplementary: adaptive vs static serving across a phase change."""
    study = _study(config.fast, config.seed)
    outcomes = study["outcomes"]
    registry = study["registry"]
    rows = []
    metrics: dict[str, float] = {}
    for policy, outcome in outcomes.items():
        violated = _violated_server_windows(outcome)
        rows.append((
            policy,
            outcome.arrivals,
            outcome.colocated_placed,
            violated,
            outcome.mean_violation_rate,
            outcome.mean_utilization_gain,
        ))
        metrics[f"{policy}_violations"] = float(violated)
        metrics[f"{policy}_violation_rate"] = outcome.mean_violation_rate
        metrics[f"{policy}_gain"] = outcome.mean_utilization_gain
        metrics[f"{policy}_colocated"] = float(outcome.colocated_placed)
    metrics["adaptive_swaps"] = float(registry.get("swaps", 0))
    metrics["adaptive_model_version"] = float(
        registry.get("model_version", 0))
    for policy, alerts in study["alerts"].items():
        metrics[f"{policy}_alert_firings"] = float(alerts["firings"])
        metrics[f"{policy}_alert_resolves"] = float(alerts["resolves"])
    return ExperimentResult(
        experiment_id="figs_adaptive",
        title="Online recalibration: a mid-trace phase change served "
              f"with stale profiles ({_QOS_LEVEL:.0%} QoS)",
        paper_claim="drift-triggered refitting recovers a stale profile "
                    "database online: the adaptive run ends with "
                    "strictly fewer violated server-windows than the "
                    "static run at equal-or-better utilization gain",
        headers=("policy", "arrivals", "colocated",
                 "violated server-windows", "mean violation rate",
                 "mean utilization gain"),
        rows=tuple(rows),
        metrics=metrics,
        notes=f"at t={study['shift_s']:.0f}s the batch pool is silently "
              f"replaced ({study['hot']} arrives hot; {study['cold']} "
              f"arrive cold); the adaptive run swapped coefficients "
              f"{metrics['adaptive_swaps']:.0f} time(s); the SLO "
              f"burn-rate alert fires on the first post-shift window "
              f"and resolves only under the adaptive policy "
              f"({metrics['adaptive_alert_resolves']:.0f} vs "
              f"{metrics['static_alert_resolves']:.0f} resolve "
              f"transition(s))",
    )
