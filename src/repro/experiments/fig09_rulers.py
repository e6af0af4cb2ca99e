"""Figure 9: Ruler implementations and their design validation.

The Rulers themselves are the artifact here; the measurable claims are
(a) functional-unit Rulers put >99.99% of their FU dispatches on the
target port, and (b) memory-Ruler working-set size correlates linearly
with the degradation it inflicts (the paper reports Pearson 0.92 / 0.89 /
0.95 for L1 / L2 / L3) — the property that lets profiling sample only the
sensitivity curve's end points.
"""

from __future__ import annotations

from repro.analysis.stats import pearson
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.context import ivy_simulator, ivy_suite
from repro.rulers.suite import intensity_sweep
from repro.rulers.validation import validate_purity
from repro.smt.simulator import ContextPlacement
from repro.workloads.spec import spec_even

__all__ = ["run"]


def run(config: ExperimentConfig) -> ExperimentResult:
    """Figure 9: the Rulers' port purity and intensity-response checks."""
    simulator = ivy_simulator()
    suite = ivy_suite()
    rows = []
    metrics: dict[str, float] = {}
    victims = spec_even()[:6] if config.fast else spec_even()
    sweeps = {
        dimension: intensity_sweep(suite[dimension], points=4)
        for dimension in suite if not dimension.is_functional_unit
    }
    # Every (victim, swept Ruler) co-run the linearity check measures,
    # with both sides' solo runs, and the functional-unit Rulers' solo
    # runs the purity check reads from the PMU, in one batched solve.
    swept = [r.profile for sweep in sweeps.values() for r in sweep]
    functional = [suite[d].profile for d in suite if d.is_functional_unit]
    simulator.prefetch([
        *([ContextPlacement(p, core=0)]
          for p in [*victims, *swept, *functional]),
        *([ContextPlacement(victim, core=0), ContextPlacement(r, core=0)]
          for victim in victims for r in swept),
    ])

    for dimension in suite:
        ruler = suite[dimension]
        if dimension.is_functional_unit:
            purity = validate_purity(ruler, simulator).purity
            rows.append((ruler.name, "port purity", purity))
            metrics[f"purity_{dimension.value}"] = purity
        else:
            sweep = sweeps[dimension]
            intensities = [r.intensity for r in sweep]
            correlations = []
            for victim in victims:
                degs = [
                    simulator.measure_pair(victim, r.profile, "smt").degradation_a
                    for r in sweep
                ]
                if max(degs) - min(degs) > 0.02:
                    correlations.append(pearson(intensities, degs))
            linearity = (sum(correlations) / len(correlations)
                         if correlations else 1.0)
            rows.append((ruler.name, "intensity linearity (pearson)",
                         linearity))
            metrics[f"linearity_{dimension.value}"] = linearity

    return ExperimentResult(
        experiment_id="fig9",
        title="Ruler design validation",
        paper_claim=">99.99% target-port utilization for FU rulers; "
                    "working-set/degradation Pearson 0.92 (L1), 0.89 (L2), "
                    "0.95 (L3) for memory rulers",
        headers=("ruler", "criterion", "value"),
        rows=tuple(rows),
        metrics=metrics,
    )
