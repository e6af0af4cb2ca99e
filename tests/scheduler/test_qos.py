"""Tests for QoS targets and violation accounting."""

import pytest

from repro.core.tail import TailLatencyModel
from repro.errors import ConfigurationError
from repro.queueing.mm1 import Mm1Queue
from repro.scheduler.qos import (
    UNSTABLE_VIOLATION,
    QosMetric,
    QosTarget,
    largest_safe_count,
)


@pytest.fixture
def tail_model():
    queue = Mm1Queue(arrival_rate=50.0, service_rate=100.0)
    return TailLatencyModel(percentile=0.9).fit_from_queue(queue)


class TestAverageTargets:
    def test_budget_is_complement(self):
        assert QosTarget.average(0.95).degradation_budget() == \
            pytest.approx(0.05)
        assert QosTarget.average(0.85).degradation_budget() == \
            pytest.approx(0.15)

    def test_is_met(self):
        target = QosTarget.average(0.90)
        assert target.is_met(0.09)
        assert target.is_met(0.10)
        assert not target.is_met(0.11)

    def test_violation_magnitude(self):
        target = QosTarget.average(0.90)
        # actual QoS 0.8 vs target 0.9 -> (0.9 - 0.8) / 0.9
        assert target.violation_magnitude(0.20) == pytest.approx(0.1 / 0.9)
        assert target.violation_magnitude(0.05) == 0.0

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigurationError):
            QosTarget.average(0.0)
        with pytest.raises(ConfigurationError):
            QosTarget.average(1.2)


class TestTailTargets:
    def test_needs_tail_model(self):
        with pytest.raises(ConfigurationError):
            QosTarget.tail(0.9).degradation_budget()

    def test_budget_much_tighter_than_average(self, tail_model):
        tail_budget = QosTarget.tail(0.95).degradation_budget(tail_model)
        avg_budget = QosTarget.average(0.95).degradation_budget()
        # At 50% load the tail budget is exactly (1 - rho) of the average
        # budget: the queueing effect halves the allowance.
        assert tail_budget == pytest.approx(avg_budget * 0.5)
        assert tail_budget < avg_budget

    def test_budget_roundtrip(self, tail_model):
        """Degrading exactly by the budget hits the latency budget."""
        target = QosTarget.tail(0.90)
        budget = target.degradation_budget(tail_model)
        latency = tail_model.predict_latency(budget)
        allowed = tail_model.baseline_latency() / 0.90
        assert latency == pytest.approx(allowed, rel=1e-9)

    def test_violation_magnitude_is_latency_overshoot(self, tail_model):
        target = QosTarget.tail(0.90)
        budget_deg = target.degradation_budget(tail_model)
        assert target.violation_magnitude(budget_deg, tail_model) == \
            pytest.approx(0.0, abs=1e-9)
        overshoot = target.violation_magnitude(budget_deg + 0.1, tail_model)
        assert overshoot > 0.0

    def test_unstable_colocations_capped(self, tail_model):
        target = QosTarget.tail(0.90)
        assert target.violation_magnitude(0.9, tail_model) == \
            UNSTABLE_VIOLATION

    def test_metric_enum(self):
        assert QosTarget.tail(0.9).metric is QosMetric.TAIL_LATENCY
        assert QosTarget.average(0.9).metric is QosMetric.AVERAGE_PERFORMANCE


class TestLargestSafeCount:
    """The admission scan every policy and the serving path share."""

    @staticmethod
    def _scan(degradations, budget):
        """Scan a hand-written degradation list (index 0 = 1 instance)."""
        asked = []

        def degradation_at(k):
            asked.append(k)
            return degradations[k - 1]

        found = largest_safe_count(degradation_at, budget,
                                   len(degradations))
        return found, asked

    def test_largest_fitting_count_and_its_degradation(self):
        found, asked = self._scan([0.01, 0.03, 0.06, 0.12], 0.05)
        assert found == (2, 0.03)
        assert asked == [4, 3, 2]

    def test_everything_fits_asks_only_the_maximum(self):
        found, asked = self._scan([0.0, 0.01, 0.02], 0.05)
        assert found == (3, 0.02)
        assert asked == [3]

    def test_nothing_fits_scans_every_count(self):
        found, asked = self._scan([0.2, 0.3, 0.4], 0.05)
        assert found == (0, 0.0)
        assert asked == [3, 2, 1]

    def test_budget_is_inclusive(self):
        found, _asked = self._scan([0.01, 0.05, 0.07], 0.05)
        assert found == (2, 0.05)

    def test_non_monotone_curve_stops_at_the_first_fit_from_the_top(self):
        # Count 3 dips under the budget although 2 does not: the scan
        # descends from the top, so it admits 3 and never asks 2 or 1.
        found, asked = self._scan([0.01, 0.09, 0.04, 0.08], 0.05)
        assert found == (3, 0.04)
        assert asked == [4, 3]

    def test_zero_max_asks_nothing(self):
        asked = []
        assert largest_safe_count(asked.append, 0.05, 0) == (0, 0.0)
        assert asked == []
