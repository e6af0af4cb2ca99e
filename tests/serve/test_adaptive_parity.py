"""Adaptive-replay parity: swaps must land identically on every engine.

With adaptation enabled, decisions feed back on scoring through
coefficient hot-swaps, so the vectorized engine interleaves its phases
per epoch (and keeps sharded placement workers resident across epochs).
The byte-stable contract survives: the per-event reference loop
(``scalar_oracle``), in-process, and sharded adaptive replays must
produce identical event logs, SLO series, books,
audit residuals, and registry histories — including *which* epochs
swapped which coefficient sets.
"""

import pytest

from repro.adapt.decider import AdaptationController, DriftPolicy
from repro.adapt.refit import OnlineRefitter
from repro.adapt.swap import ModelRegistry
from repro.core.predictor import SMiTe
from repro.errors import ConfigurationError
from repro.obs import PredictionAudit
from repro.scheduler.qos import QosTarget
from repro.serve.engine import ServingEngine
from repro.serve.service import PredictionService
from repro.serve.slo import WindowedSlo
from repro.serve.traffic import poisson_trace
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even, spec_odd
from tests.serve.scalar_oracle import ScalarServingEngine

TARGET = QosTarget.average(0.90)
EPOCH_S = 300.0
WINDOW_S = 1_200.0


@pytest.fixture(scope="module")
def apps():
    return cloudsuite_apps()[:2]


@pytest.fixture(scope="module")
def pool():
    return spec_even()[:3]


def _stale_predictor(snb_sim, pool):
    """A fresh fitted predictor whose profile database is stale.

    Each pool profile is seeded with its neighbor's characterization, so
    every prediction is systematically wrong while the simulator (the
    ground truth scoring actual degradations) still sees the real
    profiles — the recoverable-misprediction scenario adaptation exists
    for. A fresh predictor per replay keeps the cache mutation local.
    """
    predictor = SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")
    chars = [predictor.characterization(profile) for profile in pool]
    for i, profile in enumerate(pool):
        predictor.seed_characterization(
            profile, chars[(i + 1) % len(pool)],
        )
    return predictor


def _adaptive_replay(snb_sim, apps, pool, trace, *, policy=None,
                     scalar=False, **replay_kwargs):
    predictor = _stale_predictor(snb_sim, pool)
    audit = PredictionAudit()
    slo = WindowedSlo(WINDOW_S, TARGET, audit=audit)
    service = PredictionService(predictor, TARGET)
    refitter = OnlineRefitter(predictor, window=64, holdout_every=4,
                              min_samples=4)
    registry = ModelRegistry(service, predictor)
    controller = AdaptationController(
        refitter, registry, slo,
        policy=policy if policy is not None else DriftPolicy(
            drift_bound=1e-3, hysteresis=1, cooldown=0,
        ),
    )
    engine = (ScalarServingEngine if scalar else ServingEngine)(
        snb_sim, apps, service,
        servers_per_app=3, epoch_s=EPOCH_S, window_s=WINDOW_S,
        slo=slo, audit=audit, adaptation=controller,
    )
    outcome = engine.replay(trace, **replay_kwargs)
    return outcome, audit.snapshot(), registry


def _fingerprint(outcome, audit_snapshot, registry):
    return (
        outcome.event_log(),
        outcome.slo_series(),
        outcome.arrivals,
        outcome.departures,
        outcome.still_placed,
        outcome.colocated_placed,
        outcome.baseline_placed,
        outcome.shed,
        audit_snapshot,
        tuple(registry.history),
    )


class TestAdaptiveParity:
    @pytest.mark.parametrize("seed", [0, 11])
    def test_swaps_land_identically_on_all_engines(self, snb_sim, apps,
                                                   pool, seed):
        trace = poisson_trace(pool, rate_per_s=0.02, horizon_s=7_200.0,
                              seed=seed)
        scalar = _adaptive_replay(
            snb_sim, apps, pool, trace, scalar=True,
        )
        # The scenario must actually exercise the swap path, not just
        # tolerate it: the stale profile database drifts immediately.
        assert scalar[2].version >= 1
        reference = _fingerprint(*scalar)
        vector = _fingerprint(*_adaptive_replay(
            snb_sim, apps, pool, trace,
        ))
        sharded = _fingerprint(*_adaptive_replay(
            snb_sim, apps, pool, trace, shards=2, jobs=2,
        ))
        assert vector == reference
        assert sharded == reference

    def test_quiet_policy_never_swaps_and_stays_stable(self, snb_sim,
                                                       apps, pool):
        # An unreachable drift bound turns adaptation into pure
        # observation: no swaps, and the replay must byte-match across
        # strategies with version pinned at 0 (static).
        trace = poisson_trace(pool, rate_per_s=0.02, horizon_s=4_800.0,
                              seed=3)
        quiet = DriftPolicy(drift_bound=1e9, hysteresis=1, cooldown=0)
        scalar = _adaptive_replay(
            snb_sim, apps, pool, trace, policy=quiet, scalar=True,
        )
        vector = _adaptive_replay(
            snb_sim, apps, pool, trace, policy=quiet,
        )
        assert scalar[2].version == 0
        assert vector[2].version == 0
        assert _fingerprint(*vector) == _fingerprint(*scalar)

    def test_adaptation_needs_slo_and_audit(self, snb_sim, apps, pool):
        predictor = _stale_predictor(snb_sim, pool)
        audit = PredictionAudit()
        slo = WindowedSlo(WINDOW_S, TARGET, audit=audit)
        service = PredictionService(predictor, TARGET)
        controller = AdaptationController(
            OnlineRefitter(predictor),
            ModelRegistry(service, predictor),
            slo,
        )
        with pytest.raises(ConfigurationError):
            ServingEngine(
                snb_sim, apps, service,
                servers_per_app=3, epoch_s=EPOCH_S, window_s=WINDOW_S,
                adaptation=controller,
            )
