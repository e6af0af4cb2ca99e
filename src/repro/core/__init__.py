"""The SMiTe methodology: characterize, model, predict (Section III).

- :mod:`repro.core.characterize` — Ruler co-runs produce per-dimension
  sensitivity and contentiousness vectors (Equations 1-2);
- :mod:`repro.core.model` — the Sen x Con interaction regression
  (Equation 3);
- :mod:`repro.core.pmu_model` — the PMU-counter baseline (Equation 9);
- :mod:`repro.core.trainer` — pair-dataset construction and model
  evaluation (Equations 7-8) over the even/odd SPEC split of
  :func:`repro.workloads.spec.spec_even` and ``spec_odd``;
- :mod:`repro.core.tail` — the M/M/1 percentile-latency model
  (Equations 4-6);
- :mod:`repro.core.correlation` — the Figure 7 cross-dimension analysis;
- :mod:`repro.core.predictor` — the high-level facade tying it together.
"""

from repro.core.characterize import (
    Characterization,
    characterize,
    characterize_many,
)
from repro.core.correlation import CorrelationReport, correlation_report
from repro.core.curves import SensitivityCurve, measure_sensitivity_curve
from repro.core.evaluation import EvaluationReport, PairPrediction
from repro.core.model import SMiTeModel
from repro.core.online import (
    AdmissionDecision,
    OnlineProfiler,
    ProfilingBudget,
    ProfilingReport,
    admission_check,
)
from repro.core.pmu_model import PmuModel
from repro.core.predictor import SMiTe
from repro.core.tail import TailLatencyModel
from repro.core.trainer import (
    PairDataset,
    build_pair_dataset,
    build_server_dataset,
    evaluate_model,
)

__all__ = [
    "Characterization",
    "characterize",
    "characterize_many",
    "CorrelationReport",
    "correlation_report",
    "SensitivityCurve",
    "measure_sensitivity_curve",
    "AdmissionDecision",
    "OnlineProfiler",
    "ProfilingBudget",
    "ProfilingReport",
    "admission_check",
    "EvaluationReport",
    "PairPrediction",
    "SMiTeModel",
    "PmuModel",
    "SMiTe",
    "TailLatencyModel",
    "PairDataset",
    "build_pair_dataset",
    "build_server_dataset",
    "evaluate_model",
]
