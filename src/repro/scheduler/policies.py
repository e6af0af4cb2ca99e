"""Co-location policies for the scale-out study.

A policy answers one question per server: given the latency-sensitive app
already running there and a candidate batch application, how many batch
instances may fill the idle SMT contexts? The paper compares:

- the state-of-the-art **baseline** — no SMT co-location at all;
- **SMiTe** — as many instances as the prediction says stay within the
  QoS target's degradation budget;
- **Oracle** — the same decision made with the *actual* measured
  degradation (the upper bound on what prediction-steered scheduling can
  achieve);
- **Random** — interference-oblivious placement driven to the same total
  utilization gain as SMiTe, used to quantify how many violations precise
  prediction avoids.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.core.predictor import SMiTe
from repro.core.tail import TailLatencyModel
from repro.errors import SchedulingError
from repro.scheduler.qos import QosTarget, largest_safe_count
from repro.smt.simulator import ContextPlacement, Simulator
from repro.workloads.cloudsuite import LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile

__all__ = [
    "ColocationPolicy",
    "NoColocationPolicy",
    "SMiTePolicy",
    "OraclePolicy",
    "RandomPolicy",
]


class ColocationPolicy(ABC):
    """Decides batch-instance counts per server."""

    name: str = "policy"

    def prefetch(
        self,
        pairs: Sequence[tuple[LatencySensitiveWorkload, WorkloadProfile]],
        max_instances: int,
    ) -> None:
        """Batch-solve what :meth:`decide` reads for these pairs.

        ``pairs`` are the distinct (latency app, batch candidate)
        pairings a driver is about to decide, at most ``max_instances``
        each. The default reads nothing and prefetches nothing.
        """

    @abstractmethod
    def decide(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_app: WorkloadProfile,
        target: QosTarget,
        *,
        max_instances: int,
        tail_model: TailLatencyModel | None = None,
    ) -> int:
        """How many instances of ``batch_app`` to co-locate (0..max)."""


class NoColocationPolicy(ColocationPolicy):
    """The paper's baseline: leave every sibling SMT context idle."""

    name = "baseline"

    def decide(self, latency_app, batch_app, target, *, max_instances,
               tail_model=None) -> int:
        return 0


class SMiTePolicy(ColocationPolicy):
    """Admit the largest instance count the prediction calls safe."""

    name = "smite"

    def __init__(self, predictor: SMiTe) -> None:
        if not predictor.model.is_fitted:
            raise SchedulingError("SMiTePolicy needs a fitted predictor")
        self.predictor = predictor

    def prefetch(self, pairs, max_instances) -> None:
        """Every characterization the predictions for ``pairs`` read."""
        self.predictor.prefetch_server(
            [app.profile for app, _batch in pairs],
            [batch for _app, batch in pairs],
            instance_counts=range(1, max_instances + 1),
        )

    def decide(self, latency_app, batch_app, target, *, max_instances,
               tail_model=None) -> int:
        return largest_safe_count(
            lambda k: self.predictor.predict_server(
                latency_app.profile, batch_app, instances=k,
            ),
            target.degradation_budget(tail_model), max_instances,
        )[0]


class OraclePolicy(ColocationPolicy):
    """Admit based on the actual measured degradation (offline exhaustive)."""

    name = "oracle"

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator

    def prefetch(self, pairs, max_instances) -> None:
        """Every placement an exhaustive scan over ``pairs`` could read."""
        jobs = []
        for app, batch in pairs:
            jobs.append([ContextPlacement(batch, core=0)])
            jobs.extend(
                self.simulator.server_placements(app.profile, batch,
                                                 instances=k, mode="smt")
                for k in range(max_instances + 1)
            )
        self.simulator.prefetch(jobs)

    def decide(self, latency_app, batch_app, target, *, max_instances,
               tail_model=None) -> int:
        return largest_safe_count(
            lambda k: self.simulator.measure_server_degradation(
                latency_app.profile, batch_app, instances=k, mode="smt",
            ),
            target.degradation_budget(tail_model), max_instances,
        )[0]


class RandomPolicy(ColocationPolicy):
    """Interference-oblivious: a fixed instance count chosen at random.

    Constructed by the study driver with a per-server count so the
    cluster-wide utilization gain matches a reference policy exactly (the
    paper's comparison protocol); the policy itself never looks at QoS.
    """

    name = "random"

    def __init__(self, counts: dict[int, int]) -> None:
        self._counts = dict(counts)
        self._server = 0

    def decide(self, latency_app, batch_app, target, *, max_instances,
               tail_model=None) -> int:
        count = self._counts.get(self._server, 0)
        self._server += 1
        if count > max_instances:
            raise SchedulingError(
                f"random assignment of {count} exceeds {max_instances} slots"
            )
        return count

    def reset(self) -> None:
        self._server = 0
