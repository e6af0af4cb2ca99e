"""Telemetry-on parity and incremental shard-frame streaming.

Sampling must be a pure observer: with a telemetry series installed,
in-process, sharded and reference (``scalar_oracle``) replays still
produce byte-identical event logs, and the merged series itself is
byte-identical across them (frames carry cumulative tallies sampled at
identical simulated times). The streaming shard path additionally
guarantees that merging frames incrementally reaches exactly the same
registry state as the one-shot end-of-run fold-back — checked at every
frame boundary, not just at the end.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.adapt.decider import AdaptationController, DriftPolicy
from repro.adapt.refit import OnlineRefitter
from repro.adapt.swap import ModelRegistry
from repro.core.predictor import SMiTe
from repro.obs import PredictionAudit, timeseries
from repro.scheduler.qos import QosTarget
from repro.serve.engine import ServingEngine
from repro.serve.service import PredictionService
from repro.serve.shard import EpochShardPool, PoolKernel
from repro.serve.slo import WindowedSlo
from repro.serve.traffic import poisson_trace
from repro.workloads.cloudsuite import cloudsuite_apps
from repro.workloads.spec import spec_even, spec_odd
from tests.serve.scalar_oracle import ScalarServingEngine

TARGET = QosTarget.average(0.90)
EPOCH_S = 300.0
WINDOW_S = 1_200.0


@pytest.fixture(autouse=True)
def _no_leaked_sampler():
    timeseries.uninstall()
    yield
    timeseries.uninstall()


@pytest.fixture(scope="module")
def apps():
    return cloudsuite_apps()[:2]


@pytest.fixture(scope="module")
def pool():
    return spec_even()[:3]


def _sampled_replay(snb_sim, apps, pool, trace, *, adapt, scalar=False,
                    **replay_kwargs):
    """One replay with a fresh sampler installed; returns the evidence.

    The registry is reset per replay: tracked channels (windows closed,
    drift, model version) are read from it into every frame, so leaked
    state from a previous replay would poison the series comparison.
    """
    predictor = SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")
    obs.reset()
    audit = PredictionAudit()
    slo = WindowedSlo(WINDOW_S, TARGET, audit=audit)
    service = PredictionService(predictor, TARGET)
    controller = None
    if adapt:
        controller = AdaptationController(
            OnlineRefitter(predictor, window=64, holdout_every=4,
                           min_samples=4),
            ModelRegistry(service, predictor), slo,
            policy=DriftPolicy(drift_bound=1e-3, hysteresis=1, cooldown=0),
        )
    engine = (ScalarServingEngine if scalar else ServingEngine)(
        snb_sim, apps, service,
        servers_per_app=3, epoch_s=EPOCH_S, window_s=WINDOW_S,
        slo=slo, audit=audit, adaptation=controller,
    )
    series = timeseries.install(2 * EPOCH_S)
    try:
        outcome = engine.replay(trace, **replay_kwargs)
    finally:
        timeseries.uninstall()
    return (
        outcome.event_log(),
        outcome.slo_series(),
        audit.snapshot(),
        json.dumps(series.snapshot(), sort_keys=True),
    )


class TestTelemetryParity:
    @pytest.mark.parametrize("adapt", [False, True])
    def test_series_identical_across_strategies(self, snb_sim, apps,
                                                pool, adapt):
        trace = poisson_trace(pool, rate_per_s=0.02, horizon_s=7_200.0,
                              seed=7)
        scalar = _sampled_replay(snb_sim, apps, pool, trace,
                                 adapt=adapt, scalar=True)
        vector = _sampled_replay(snb_sim, apps, pool, trace,
                                 adapt=adapt)
        sharded = _sampled_replay(snb_sim, apps, pool, trace,
                                  adapt=adapt, shards=2, jobs=2)
        assert vector == scalar
        assert sharded == scalar
        # The sampler actually sampled: one frame per 2-epoch grid point.
        frames = json.loads(scalar[3])["frames"]
        assert [f["t"] for f in frames] == [
            600.0 * (i + 1) for i in range(12)
        ]
        assert frames[-1]["counters"]["serve.engine.arrivals"] > 0

    def test_sampling_matches_the_unsampled_replay(self, snb_sim, apps,
                                                   pool):
        """Installing a sampler never perturbs the replay itself."""
        trace = poisson_trace(pool, rate_per_s=0.02, horizon_s=4_800.0,
                              seed=3)

        def _run(sampled):
            predictor = SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")
            obs.reset()
            engine = ServingEngine(
                snb_sim, apps, PredictionService(predictor, TARGET),
                servers_per_app=3, epoch_s=EPOCH_S, window_s=WINDOW_S,
            )
            if sampled:
                timeseries.install(EPOCH_S)
            try:
                outcome = engine.replay(trace, shards=2)
            finally:
                timeseries.uninstall()
            return outcome.event_log(), outcome.slo_series()

        assert _run(sampled=True) == _run(sampled=False)


def _pool_runs(n_pools, n_runs=2, seed=0):
    """Synthetic per-pool event runs of uneven sizes (one pool empty).

    Returns ``n_runs`` steps, each holding one :meth:`PoolKernel.step`
    argument tuple per pool over 3 epochs; every job departs in the run
    it arrived in.
    """
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(n_runs):
        runs = []
        for p in range(n_pools):
            m = 0 if p == 1 else 4 * (p + 1)  # pool 1: early-exit worker
            is_arrival = np.ones(m, dtype=bool)
            is_arrival[1::2] = False
            job_pos = np.repeat(np.arange((m + 1) // 2), 2)[:m]
            epoch = np.sort(rng.integers(0, 3, size=m))
            runs.append((
                is_arrival,
                job_pos.astype(np.int64),
                rng.integers(0, 2, size=m).astype(np.int64),
                np.full(m, 2, dtype=np.int64),
                np.searchsorted(epoch, np.arange(4)),
            ))
        steps.append(runs)
    return steps


_SPEC = (2, 4)  # (n_servers, n_states) of every synthetic pool


def _run_pool(steps, n_pools, **pool_kwargs):
    pool = EpochShardPool([_SPEC] * n_pools, **pool_kwargs)
    groups = [pool.step(runs) for runs in steps]
    return groups, _replay_fingerprint(pool.finish())


def _replay_fingerprint(replays):
    return [
        (r.server.tolist(), r.placement.tolist(),
         r.instances_after.tolist(), r.groups_per_epoch)
        for r in replays
    ]


class TestIncrementalShardStream:
    def test_streamed_merge_equals_foldback_at_every_boundary(self):
        n_pools = 4
        steps = _pool_runs(n_pools)

        # In-process kernels are the placement reference.
        kernels = [PoolKernel(*_SPEC) for _ in range(n_pools)]
        in_process = [
            [kernel.step(*columns) for kernel, columns in zip(kernels, runs)]
            for runs in steps
        ]

        # Reference fold-back: no frames, one end-of-run merge.
        obs.reset()
        reference = _run_pool(steps, n_pools, shards=n_pools)
        reference_counters = obs.snapshot()["counters"]

        # Streamed: collect every frame and check, at each boundary,
        # that the incrementally merged registry equals the sum of the
        # deltas shipped so far (frames merge in deterministic order).
        obs.reset()
        boundary_checks = []
        running: dict[str, float] = {}

        def on_frame(delta):
            for name, value in delta.get("counters", {}).items():
                running[name] = running.get(name, 0) + value
            merged_now = obs.snapshot()["counters"]
            boundary_checks.append(all(
                merged_now.get(name) == value
                for name, value in running.items()
                if name != "serve.telemetry.frames"
            ))

        streamed = _run_pool(steps, n_pools, shards=n_pools,
                             stream_every=1, on_frame=on_frame)
        streamed_counters = obs.snapshot()["counters"]

        assert streamed == reference
        assert reference[0] == in_process
        assert reference[1] == _replay_fingerprint(
            [kernel.result() for kernel in kernels]
        )
        # One frame per worker per step, plus the boundary invariant.
        n_frames = n_pools * len(steps)
        assert len(boundary_checks) == n_frames
        assert all(boundary_checks)
        assert streamed_counters.pop("serve.telemetry.frames") == n_frames
        assert streamed_counters == reference_counters

    def test_active_sampler_switches_to_streaming(self, snb_sim, apps,
                                                  pool):
        """A sharded replay streams frames whenever a series is
        installed, per worker on the sampler's 600 s cadence: the one
        whole-trace step without adaptation, every second of the 24
        one-epoch steps with it."""
        trace = poisson_trace(pool, rate_per_s=0.02, horizon_s=7_200.0,
                              seed=7)
        for adapt, frames in ((False, 2), (True, 24)):
            _sampled_replay(snb_sim, apps, pool, trace, adapt=adapt,
                            shards=2, jobs=2)
            counters = obs.snapshot()["counters"]
            assert counters["serve.telemetry.frames"] == frames
            assert counters["serve.shard.workers"] == 2

    def test_off_path_ships_no_frames(self, snb_sim, apps, pool):
        n_pools = 3
        shipped = []
        obs.reset()
        _run_pool(_pool_runs(n_pools), n_pools, shards=n_pools,
                  on_frame=shipped.append)
        assert shipped == []
        assert "serve.telemetry.frames" not in obs.snapshot()["counters"]

        predictor = SMiTe(snb_sim).fit(spec_odd()[:4], mode="smt")
        obs.reset()
        engine = ServingEngine(
            snb_sim, apps, PredictionService(predictor, TARGET),
            servers_per_app=3, epoch_s=EPOCH_S, window_s=WINDOW_S,
        )
        engine.replay(
            poisson_trace(pool, rate_per_s=0.02, horizon_s=4_800.0, seed=3),
            shards=2,
        )
        counters = obs.snapshot()["counters"]
        assert counters["serve.shard.workers"] == 2
        assert "serve.telemetry.frames" not in counters
