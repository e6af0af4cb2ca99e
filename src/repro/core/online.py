"""Online profiling for newly arriving applications (Section III-D).

The paper's operational argument for SMiTe over exhaustive pairwise
profiling: characterization is *per application* (7 Ruler co-runs, not
N co-runs against every resident workload) and cheap enough to run online
when a job first arrives at the cluster scheduler. This module makes that
workflow concrete:

- :class:`ProfilingBudget` expresses how much measurement time the
  scheduler will spend on a newcomer;
- :class:`OnlineProfiler` runs the characterization within the budget
  (full suite, or a reduced endpoint set under pressure), returns the
  admission-ready characterization, and accounts for every co-run so the
  cost claims are checkable;
- :func:`admission_check` is the one-call gate a cluster scheduler needs:
  given a fitted predictor and a QoS target, may this newcomer share a
  server with the resident latency app, and at how many instances?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.characterize import Characterization
from repro.core.predictor import SMiTe
from repro.core.tail import TailLatencyModel
from repro.errors import CharacterizationError, ConfigurationError
from repro.rulers.base import Dimension, RulerSuite
from repro.scheduler.qos import QosTarget, largest_safe_count
from repro.smt.simulator import PairMode, Simulator
from repro.workloads.cloudsuite import LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile

__all__ = ["ProfilingBudget", "ProfilingReport", "OnlineProfiler",
           "AdmissionDecision", "admission_check"]


@dataclass(frozen=True)
class ProfilingBudget:
    """How much measurement the scheduler may spend on a newcomer.

    ``seconds_per_corun`` is the dwell time of one Ruler co-location
    measurement (the paper completes a characterization "in the order of
    seconds"); ``max_seconds`` caps the total. When the full 7-dimension
    suite does not fit, the profiler falls back to the highest-priority
    dimensions first.
    """

    max_seconds: float = 10.0
    seconds_per_corun: float = 1.0

    def __post_init__(self) -> None:
        if self.max_seconds <= 0 or self.seconds_per_corun <= 0:
            raise ConfigurationError("profiling budget must be positive")

    @property
    def max_coruns(self) -> int:
        return int(self.max_seconds / self.seconds_per_corun)


@dataclass
class ProfilingReport:
    """Accounting for one online characterization."""

    workload: str
    dimensions_measured: tuple[Dimension, ...]
    coruns: int
    seconds_spent: float
    complete: bool
    characterization: Characterization | None = None

    def __str__(self) -> str:  # the line an operator's log would show
        state = "complete" if self.complete else "partial"
        return (f"{self.workload}: {state} characterization, "
                f"{self.coruns} co-runs, {self.seconds_spent:.1f}s")


class OnlineProfiler:
    """Characterize arriving applications within a measurement budget."""

    #: Fallback priority when the budget cannot fit all seven dimensions:
    #: the memory hierarchy dominates co-location interference for WSC
    #: workloads, then the three-port INT dimension, then the FP ports.
    DIMENSION_PRIORITY = (
        Dimension.L3, Dimension.L2, Dimension.L1, Dimension.INT_ADD,
        Dimension.FP_MUL, Dimension.FP_ADD, Dimension.FP_SHF,
    )

    def __init__(
        self,
        simulator: Simulator,
        suite: RulerSuite,
        *,
        budget: ProfilingBudget | None = None,
        mode: PairMode = "smt",
    ) -> None:
        self.simulator = simulator
        self.suite = suite
        self.budget = budget if budget is not None else ProfilingBudget()
        self.mode = mode
        self._reports: list[ProfilingReport] = []

    # ------------------------------------------------------------------

    def profile(self, workload: WorkloadProfile) -> ProfilingReport:
        """Characterize one newcomer within the budget.

        A complete characterization needs one co-run per suite dimension;
        under a tight budget, dimensions are measured in priority order
        and the report is marked partial (partial characterizations
        cannot feed the predictor — the scheduler should fall back to
        disallowing co-location, the paper's baseline).
        """
        affordable = self.budget.max_coruns
        dimensions = [d for d in self.DIMENSION_PRIORITY if d in self.suite]
        measured = dimensions[:affordable]
        sensitivity: dict[Dimension, float] = {}
        contentiousness: dict[Dimension, float] = {}
        for dimension in measured:
            ruler = self.suite[dimension]
            result = self.simulator.measure_pair(workload, ruler.profile,
                                                 self.mode)
            sensitivity[dimension] = result.degradation_a
            contentiousness[dimension] = result.degradation_b
        complete = len(measured) == len(dimensions)
        characterization = None
        if complete:
            characterization = Characterization(
                workload=workload.name,
                sensitivity=sensitivity,
                contentiousness=contentiousness,
            )
        report = ProfilingReport(
            workload=workload.name,
            dimensions_measured=tuple(measured),
            coruns=len(measured),
            seconds_spent=len(measured) * self.budget.seconds_per_corun,
            complete=complete,
            characterization=characterization,
        )
        self._reports.append(report)
        return report

    @property
    def reports(self) -> tuple[ProfilingReport, ...]:
        return tuple(self._reports)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds_spent for r in self._reports)


@dataclass(frozen=True)
class AdmissionDecision:
    """The scheduler-facing outcome for one arriving batch job."""

    workload: str
    admitted_instances: int
    predicted_degradation: float
    degradation_budget: float
    profiling: ProfilingReport

    @property
    def admitted(self) -> bool:
        return self.admitted_instances > 0


def admission_check(
    predictor: SMiTe,
    latency_app: LatencySensitiveWorkload,
    newcomer: WorkloadProfile,
    target: QosTarget,
    *,
    budget: ProfilingBudget | None = None,
    tail_model: TailLatencyModel | None = None,
    max_instances: int | None = None,
) -> AdmissionDecision:
    """Profile a newcomer online and decide its safe co-location level.

    This is the paper's "SMiTe in Action" loop for one arrival: quick
    Ruler profiling, then the largest instance count whose predicted
    degradation of the resident latency app stays inside the QoS target's
    budget. A partial (budget-truncated) characterization admits nothing.
    """
    if not predictor.model.is_fitted:
        raise CharacterizationError("admission needs a fitted predictor")
    profiler = OnlineProfiler(predictor.simulator, predictor.suite,
                              budget=budget, mode=predictor.mode)
    report = profiler.profile(newcomer)
    allowed = target.degradation_budget(tail_model)
    if max_instances is None:
        max_instances = predictor.simulator.machine.cores
    if not report.complete:
        return AdmissionDecision(
            workload=newcomer.name,
            admitted_instances=0,
            predicted_degradation=float("nan"),
            degradation_budget=allowed,
            profiling=report,
        )
    best_instances, predicted_at_best = largest_safe_count(
        lambda k: predictor.predict_server(latency_app.profile, newcomer,
                                           instances=k),
        allowed, max_instances,
    )
    return AdmissionDecision(
        workload=newcomer.name,
        admitted_instances=best_instances,
        predicted_degradation=predicted_at_best,
        degradation_budget=allowed,
        profiling=report,
    )
