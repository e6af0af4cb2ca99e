"""Figure 10: prediction accuracy for SMT co-location on SPEC CPU2006.

Train on even-numbered benchmarks, test on odd-numbered pairs, on the
Ivy Bridge machine. Paper: SMiTe 2.80% mean absolute error vs. 13.55%
for the best PMU-counter model; measured per-benchmark degradations span
11.74%-53.14%.
"""

from __future__ import annotations

from repro.core.trainer import evaluate_model
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.context import (
    ivy_simulator,
    pmu_model_spec,
    smite_spec,
    spec_test_dataset,
)

__all__ = ["run", "evaluate_spec"]


def evaluate_spec(mode: str):
    """Shared SMiTe/PMU evaluation for Figures 10 (smt) and 11 (cmp)."""
    simulator = ivy_simulator()
    smite = smite_spec(mode)  # type: ignore[arg-type]
    pmu = pmu_model_spec(mode)  # type: ignore[arg-type]
    dataset = spec_test_dataset(mode)  # type: ignore[arg-type]
    # Every characterization the predictions read, in one batched sweep.
    smite.characterize_all(sample.victim for sample in dataset)
    smite_report = evaluate_model("smite", smite.predict, dataset)
    pmu_report = evaluate_model(
        "pmu",
        lambda v, a: pmu.predict(simulator.read_solo_pmu(v),
                                 simulator.read_solo_pmu(a)),
        dataset,
    )
    return smite_report, pmu_report


def _build_result(experiment_id: str, title: str, claim: str, mode: str,
                  paper_smite: float, paper_pmu: float) -> ExperimentResult:
    smite_report, pmu_report = evaluate_spec(mode)
    rows = []
    for victim in smite_report.victims:
        s_bench = smite_report.for_victim(victim)
        p_bench = pmu_report.for_victim(victim)
        rows.append((
            victim,
            s_bench.mean_measured_degradation,
            p_bench.mean_error,
            s_bench.mean_error,
        ))
    rows.append(("AVERAGE", float("nan"), pmu_report.mean_error,
                 smite_report.mean_error))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        paper_claim=claim,
        headers=("benchmark", "measured degradation",
                 "PMU prediction error", "SMiTe prediction error"),
        rows=tuple(rows),
        metrics={
            "smite_mean_error": smite_report.mean_error,
            "pmu_mean_error": pmu_report.mean_error,
            "pmu_to_smite_ratio": (pmu_report.mean_error
                                   / smite_report.mean_error),
            "paper_smite_error": paper_smite,
            "paper_pmu_error": paper_pmu,
        },
    )


def run(config: ExperimentConfig) -> ExperimentResult:
    """Figure 10: SMT co-run degradation prediction accuracy on SPEC."""
    return _build_result(
        "fig10",
        "SMT co-location prediction accuracy (SPEC CPU2006, Ivy Bridge)",
        "SMiTe predicts with 2.80% average error vs 13.55% for the PMU "
        "model; measured degradations span 11.74%-53.14%",
        "smt",
        paper_smite=0.0280,
        paper_pmu=0.1355,
    )
