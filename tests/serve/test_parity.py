"""Engine parity: in-process and sharded replays against the oracle.

The struct-of-arrays engine and its multi-process sharding are pure
performance work — the byte-stable event log is the correctness anchor,
so every (seed, policy, epoch size) combination must reproduce the
per-event reference loop's (``scalar_oracle``) log, SLO series, books,
and audit residuals exactly.
"""

import pytest

from repro.core.predictor import SMiTe
from repro.obs import PredictionAudit
from repro.scheduler.qos import QosTarget
from repro.serve.engine import ServingEngine
from repro.serve.service import (
    BaselineDecider,
    PredictionService,
    RandomDecider,
)
from repro.serve.slo import WindowedSlo
from repro.serve.traffic import diurnal_trace, poisson_trace
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even, spec_odd
from tests.serve.scalar_oracle import ScalarServingEngine

TARGET = QosTarget.average(0.90)


@pytest.fixture(scope="module")
def predictor(snb_sim):
    return SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")


@pytest.fixture(scope="module")
def apps():
    return cloudsuite_apps()[:2]


@pytest.fixture(scope="module")
def pool():
    return spec_even()[:3]


def _decider(policy, predictor, seed):
    if policy == "smite":
        return PredictionService(predictor, TARGET)
    if policy == "random":
        return RandomDecider(seed + 1)
    return BaselineDecider()


def _replay(snb_sim, apps, predictor, trace, policy, seed, epoch_s,
            scalar=False, **replay_kwargs):
    audit = PredictionAudit()
    engine = (ScalarServingEngine if scalar else ServingEngine)(
        snb_sim, apps, _decider(policy, predictor, seed),
        servers_per_app=3, epoch_s=epoch_s, window_s=4 * epoch_s,
        slo=WindowedSlo(4 * epoch_s, TARGET, audit=audit),
        audit=audit,
    )
    outcome = engine.replay(trace, **replay_kwargs)
    return outcome, audit.snapshot()


def _fingerprint(outcome, audit_snapshot):
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
    )


class TestEngineParity:
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("policy", ["smite", "random", "baseline"])
    @pytest.mark.parametrize("epoch_s", [120.0, 600.0])
    def test_vector_and_shards_match_scalar(self, snb_sim, apps, pool,
                                            predictor, seed, policy,
                                            epoch_s):
        trace = poisson_trace(pool, rate_per_s=0.02, horizon_s=7_200.0,
                              seed=seed)
        reference = _fingerprint(*_replay(
            snb_sim, apps, predictor, trace, policy, seed, epoch_s,
            scalar=True,
        ))
        vector = _fingerprint(*_replay(
            snb_sim, apps, predictor, trace, policy, seed, epoch_s,
        ))
        sharded = _fingerprint(*_replay(
            snb_sim, apps, predictor, trace, policy, seed, epoch_s,
            shards=2,
        ))
        assert vector == reference
        assert sharded == reference

    def test_diurnal_day_parity(self, snb_sim, apps, pool, predictor):
        trace = diurnal_trace(pool, mean_rate_per_s=0.01, seed=42,
                              horizon_s=43_200.0)
        reference = _fingerprint(*_replay(
            snb_sim, apps, predictor, trace, "smite", 42, 300.0,
            scalar=True,
        ))
        vector = _fingerprint(*_replay(
            snb_sim, apps, predictor, trace, "smite", 42, 300.0,
        ))
        assert vector == reference
