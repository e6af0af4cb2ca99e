"""QoS targets: average performance or percentile latency.

A QoS target of 0.95 on *average performance* means the latency app must
retain at least 95% of its solo IPC (degradation <= 5%). On *tail
latency* it means the 90th-percentile latency may grow to at most
baseline/0.95 — which, through the queueing model, maps to a much
tighter degradation budget (the paper's Section IV-D point).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.core.tail import TailLatencyModel
from repro.errors import ConfigurationError

__all__ = [
    "QosMetric",
    "QosTarget",
    "UNSTABLE_VIOLATION",
    "largest_safe_count",
]

#: Cap on the reported tail-latency violation when a co-location drives
#: the queue unstable (latency unbounded in steady state).
UNSTABLE_VIOLATION = 10.0


class QosMetric(enum.Enum):
    """Which latency statistic a QoS target constrains."""
    AVERAGE_PERFORMANCE = "average_performance"
    TAIL_LATENCY = "tail_latency"

    def __repr__(self) -> str:
        return f"QosMetric.{self.name}"


@dataclass(frozen=True)
class QosTarget:
    """A QoS requirement: metric plus the retained-quality level."""

    metric: QosMetric
    level: float  # e.g. 0.95, 0.90, 0.85

    def __post_init__(self) -> None:
        if not 0.0 < self.level <= 1.0:
            raise ConfigurationError(
                f"QoS level must be in (0, 1], got {self.level}"
            )

    @staticmethod
    def average(level: float) -> "QosTarget":
        return QosTarget(metric=QosMetric.AVERAGE_PERFORMANCE, level=level)

    @staticmethod
    def tail(level: float) -> "QosTarget":
        return QosTarget(metric=QosMetric.TAIL_LATENCY, level=level)

    def degradation_budget(
        self, tail_model: TailLatencyModel | None = None
    ) -> float:
        """The largest average degradation that still meets this target."""
        if self.metric is QosMetric.AVERAGE_PERFORMANCE:
            return 1.0 - self.level
        if tail_model is None:
            raise ConfigurationError(
                "tail-latency QoS targets need a fitted TailLatencyModel"
            )
        return tail_model.max_safe_degradation(self.level)

    def is_met(self, degradation: float,
               tail_model: TailLatencyModel | None = None) -> bool:
        """Whether an observed degradation satisfies the target."""
        return degradation <= self.degradation_budget(tail_model) + 1e-12

    def violation_magnitude(
        self, degradation: float,
        tail_model: TailLatencyModel | None = None,
    ) -> float:
        """Normalized violation (QoS_target - QoS_actual) / QoS_target.

        For average performance, actual QoS is ``1 - degradation`` (the
        paper's definition). For tail latency, the violation is the
        percentile-latency overshoot relative to the allowed budget
        ``baseline / level`` — queueing makes this grow super-linearly,
        which is how the paper's Random policy reaches 110% violations.
        A co-location that drives the queue unstable is capped at
        :data:`UNSTABLE_VIOLATION`.
        """
        if self.metric is QosMetric.AVERAGE_PERFORMANCE:
            actual = 1.0 - degradation
            return max(0.0, (self.level - actual) / self.level)
        if tail_model is None:
            raise ConfigurationError(
                "tail-latency QoS targets need a fitted TailLatencyModel"
            )
        budget = tail_model.baseline_latency() / self.level
        try:
            observed = tail_model.predict_latency(degradation)
        except Exception:
            return UNSTABLE_VIOLATION  # queue driven unstable
        return min(UNSTABLE_VIOLATION, max(0.0, (observed - budget) / budget))


def largest_safe_count(
    degradation_at: Callable[[int], float],
    budget: float,
    max_instances: int,
) -> tuple[int, float]:
    """The admission rule: the most batch instances within ``budget``.

    Scans counts from ``max_instances`` down to 1 and stops at the first
    whose ``degradation_at(count)`` is at most ``budget``, returning that
    count and its degradation; ``(0, 0.0)`` when no count fits. The scan
    order is part of the contract: callers' memos and prefetches see
    exactly the counts asked, largest first.
    """
    for instances in range(max_instances, 0, -1):
        degradation = degradation_at(instances)
        if degradation <= budget:
            return instances, degradation
    return 0, 0.0
