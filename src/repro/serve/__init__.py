"""Online cluster-serving runtime (trace-driven scale-out, Section IV-C live).

``repro.serve`` turns the one-shot scale-out snapshot of
:mod:`repro.scheduler` into a *timeline*: seeded workload generators
produce timestamped batch-job streams (:mod:`repro.serve.traffic`), a
discrete-event cluster runtime replays them against live server state
(:mod:`repro.serve.engine`), a :class:`~repro.serve.service.PredictionService`
answers every placement question through an LRU-fronted SMiTe predictor
with per-epoch admission control, and :mod:`repro.serve.slo` keeps
time-windowed utilization and QoS-violation accounts over the simulated
event clock.

Everything is deterministic given the trace seed: the event clock is
simulated time, every random draw is seeded, and two replays of the same
trace produce byte-identical event logs and SLO series.

Typical use::

    from repro.serve import ServingEngine, PredictionService, diurnal_trace

    trace = diurnal_trace(spec_even(), mean_rate_per_s=0.05,
                          horizon_s=86_400.0, seed=42)
    service = PredictionService(predictor, QosTarget.average(0.9))
    engine = ServingEngine(simulator, cloudsuite_apps(), service,
                           servers_per_app=100)
    outcome = engine.replay(trace)
"""

from __future__ import annotations

from repro.serve.api import ApiClient, ApiError, ApiServer, run_api_shards
from repro.serve.engine import ReplayOutcome, ServingEngine
from repro.serve.events import EventRecord, EventTable
from repro.serve.service import (
    AdmissionControl,
    BaselineDecider,
    CandidateBatch,
    CandidateStream,
    Decider,
    Decision,
    DecisionBatch,
    PredictionService,
    RandomDecider,
)
from repro.serve.shard import PoolReplay
from repro.serve.slo import SloWindow, WindowedSlo, window_violation_stats
from repro.serve.traffic import (
    Trace,
    TraceJob,
    diurnal_trace,
    phase_shift_trace,
    poisson_trace,
)

__all__ = [
    "AdmissionControl",
    "ApiClient",
    "ApiError",
    "ApiServer",
    "BaselineDecider",
    "CandidateBatch",
    "CandidateStream",
    "Decider",
    "Decision",
    "DecisionBatch",
    "EventRecord",
    "EventTable",
    "PoolReplay",
    "PredictionService",
    "RandomDecider",
    "ReplayOutcome",
    "ServingEngine",
    "SloWindow",
    "Trace",
    "TraceJob",
    "WindowedSlo",
    "diurnal_trace",
    "phase_shift_trace",
    "poisson_trace",
    "run_api_shards",
    "window_violation_stats",
]
