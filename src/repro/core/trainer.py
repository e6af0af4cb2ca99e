"""Dataset construction and model evaluation (Section IV-B).

The paper's protocol: split the 29 SPEC benchmarks by even/odd numbering
(:func:`repro.workloads.spec.spec_even` and
:func:`~repro.workloads.spec.spec_odd`), profile every ordered co-location
pair inside the training half, fit the models there, and evaluate on pairs
drawn from the testing half (Equations 7-8). For CloudSuite, the
server-level topology (1..6 batch instances against a half-loaded latency
app) replaces the simple pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.evaluation import EvaluationReport, PairPrediction
from repro.errors import ConfigurationError
from repro.obs import counter, span
from repro.smt.simulator import PairMode, Simulator
from repro.workloads.profile import WorkloadProfile

__all__ = [
    "PairSample",
    "PairDataset",
    "build_pair_dataset",
    "ServerSample",
    "build_server_dataset",
    "evaluate_model",
]


@dataclass(frozen=True)
class PairSample:
    """One measured co-location: victim, aggressor, Eq. 7 degradation."""

    victim: WorkloadProfile
    aggressor: WorkloadProfile
    degradation: float


@dataclass(frozen=True)
class PairDataset:
    """All ordered co-location measurements for a workload population."""

    mode: PairMode
    samples: tuple[PairSample, ...]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)


def build_pair_dataset(
    simulator: Simulator,
    victims: Sequence[WorkloadProfile],
    aggressors: Sequence[WorkloadProfile] | None = None,
    *,
    mode: PairMode = "smt",
    include_self_pairs: bool = True,
) -> PairDataset:
    """Measure every ordered (victim, aggressor) co-location.

    With ``aggressors=None`` the population is paired with itself (the
    within-training-set profiling of Section IV-B1). Self-pairs — two
    copies of one benchmark sharing a core — are legitimate co-locations
    and are included by default.
    """
    if not victims:
        raise ConfigurationError("pair dataset needs at least one victim")
    others = list(aggressors) if aggressors is not None else list(victims)
    if not others:
        raise ConfigurationError("pair dataset needs at least one aggressor")
    with span("trainer.pair_dataset"):
        pairs = [(victim, aggressor, mode)
                 for victim in victims
                 for aggressor in others
                 if include_self_pairs or victim.name != aggressor.name]
        simulator.prefetch_readings(pairs=pairs)
        samples = [
            PairSample(
                victim=victim,
                aggressor=aggressor,
                degradation=simulator.measure_pair(
                    victim, aggressor, mode).degradation_a,
            )
            for victim, aggressor, _mode in pairs
        ]
        counter("core.trainer.pair_samples").inc(len(samples))
        return PairDataset(mode=mode, samples=tuple(samples))


@dataclass(frozen=True)
class ServerSample:
    """One CloudSuite server co-location at a given batch-instance count."""

    latency_app: WorkloadProfile
    batch_app: WorkloadProfile
    instances: int
    degradation: float


def build_server_dataset(
    simulator: Simulator,
    latency_apps: Sequence[WorkloadProfile],
    batch_apps: Sequence[WorkloadProfile],
    *,
    mode: PairMode = "smt",
    max_instances: int | None = None,
    latency_threads: int | None = None,
) -> tuple[ServerSample, ...]:
    """Measure the server topology over 1..max_instances batch copies."""
    if max_instances is None:
        max_instances = (simulator.machine.cores if mode == "smt"
                         else simulator.machine.cores // 2)
    with span("trainer.server_dataset"):
        readings = [(latency_app, batch_app, k, mode, latency_threads)
                    for latency_app in latency_apps
                    for batch_app in batch_apps
                    for k in range(1, max_instances + 1)]
        simulator.prefetch_readings(servers=readings)
        samples = [
            ServerSample(
                latency_app=latency_app,
                batch_app=batch_app,
                instances=k,
                degradation=simulator.measure_server_degradation(
                    latency_app, batch_app, instances=k, mode=mode,
                    latency_threads=latency_threads,
                ),
            )
            for latency_app, batch_app, k, _mode, _threads in readings
        ]
        counter("core.trainer.server_samples").inc(len(samples))
        return tuple(samples)


def evaluate_model(
    model_name: str,
    predict: Callable[[WorkloadProfile, WorkloadProfile], float],
    dataset: PairDataset,
) -> EvaluationReport:
    """Run a predictor over a measured dataset and report Eq. 8 errors."""
    predictions = tuple(
        PairPrediction(
            victim=s.victim.name,
            aggressor=s.aggressor.name,
            measured_degradation=s.degradation,
            predicted_degradation=predict(s.victim, s.aggressor),
        )
        for s in dataset
    )
    return EvaluationReport(model_name=model_name, predictions=predictions)
