"""The FCFS M/M/1 response-time model (Equations 4-6).

Each worker thread of a latency-sensitive service is one M/M/1 queue:
Poisson arrivals at rate ``lambda``, exponential service at rate ``mu``.
The sojourn (response) time is exponential with rate ``mu - lambda``
(Equation 4), so the p-th percentile is closed-form (Equation 6), and a
co-location that degrades average performance by ``Deg`` simply rescales
the service rate to ``(1 - Deg) * mu`` (Equation 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import QueueingError

__all__ = ["Mm1Queue"]


@dataclass(frozen=True)
class Mm1Queue:
    """A stable FCFS M/M/1 queue."""

    arrival_rate: float  # lambda
    service_rate: float  # mu

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise QueueingError(
                f"arrival rate must be positive, got {self.arrival_rate}"
            )
        if self.service_rate <= self.arrival_rate:
            raise QueueingError(
                f"unstable queue: service rate {self.service_rate} must "
                f"exceed arrival rate {self.arrival_rate}"
            )

    @property
    def utilization(self) -> float:
        """Offered load rho = lambda / mu."""
        return self.arrival_rate / self.service_rate

    @property
    def sojourn_rate(self) -> float:
        """The exponential response-time rate ``mu - lambda``."""
        return self.service_rate - self.arrival_rate

    @property
    def mean_response_time(self) -> float:
        return 1.0 / self.sojourn_rate  # __post_init__ enforces mu > lambda, so mu - lambda > 0

    def response_time_pdf(self, t: float) -> float:
        """Equation 4: f(t) = (mu - lambda) * exp(-(mu - lambda) t)."""
        if t < 0:
            return 0.0
        rate = self.sojourn_rate
        return rate * math.exp(-rate * t)

    def response_time_cdf(self, t: float) -> float:
        """P(response time <= t)."""
        if t < 0:
            return 0.0
        return 1.0 - math.exp(-self.sojourn_rate * t)

    def percentile(self, p: float) -> float:
        """Equation 6 at Deg = 0: t_p = -ln(1 - p) / (mu - lambda)."""
        if not 0.0 < p < 1.0:
            raise QueueingError(f"percentile must be in (0, 1), got {p}")
        return -math.log(1.0 - p) / self.sojourn_rate  # __post_init__ enforces mu > lambda, so mu - lambda > 0

    def degraded(self, degradation: float) -> "Mm1Queue":
        """Equation 5: the same queue with mu' = (1 - Deg) * mu.

        Raises :class:`QueueingError` if the degradation drives the queue
        unstable (service rate at or below the arrival rate) — the paper's
        scheduler treats such co-locations as categorically unsafe.
        """
        if degradation < 0:
            degradation = 0.0  # measurement noise can report tiny speedups
        if degradation >= 1.0:
            raise QueueingError(
                f"degradation {degradation} leaves no service capacity"
            )
        return Mm1Queue(
            arrival_rate=self.arrival_rate,
            service_rate=(1.0 - degradation) * self.service_rate,
        )

    def degraded_percentile(self, p: float, degradation: float) -> float:
        """Equation 6: t_p = -ln(1-p) / ((1 - Deg) mu - lambda)."""
        return self.degraded(degradation).percentile(p)

    def max_safe_degradation(self, p: float, latency_budget: float) -> float:
        """Largest Deg keeping the p-th percentile within the budget.

        Inverts Equation 6; the scale-out scheduler uses this to turn a
        tail-latency QoS target into a degradation threshold.
        """
        if latency_budget <= 0:
            raise QueueingError("latency budget must be positive")
        if not 0.0 < p < 1.0:
            raise QueueingError(f"percentile must be in (0, 1), got {p}")
        needed_rate = -math.log(1.0 - p) / latency_budget
        max_mu_drop = self.service_rate - self.arrival_rate - needed_rate
        if max_mu_drop <= 0:
            return 0.0
        return max_mu_drop / self.service_rate
