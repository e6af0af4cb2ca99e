"""Figure 3: CDFs of aggregated FU-port utilization over all SPEC pairs.

For every SPEC co-location pair on an SMT core, the two contexts'
UOPS_DISPATCHED_PORT counters are summed per port; the experiment reports
the distribution per port and checks Finding 6: ports 0 and 1 have
similar utilization distributions, distinctly different from port 5, and
SPEC_FP leans on ports 0/1 while SPEC_INT leans on port 5.
"""

from __future__ import annotations

import itertools

from repro.analysis.stats import empirical_cdf
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.context import ivy_simulator
from repro.smt.simulator import ContextPlacement
from repro.workloads.spec import SPEC_CPU2006

__all__ = ["run", "aggregate_port_samples"]

_PORTS = (0, 1, 5)
_QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)


def aggregate_port_samples(ports=_PORTS) -> dict[int, list[float]]:
    """Summed per-port utilization for every unordered SPEC pair."""
    simulator = ivy_simulator()
    samples: dict[int, list[float]] = {p: [] for p in ports}
    profiles = list(SPEC_CPU2006.values())
    results = simulator.run_many([
        [ContextPlacement(a, core=0), ContextPlacement(b, core=0)]
        for a, b in itertools.combinations_with_replacement(profiles, 2)
    ])
    for result in results:
        aggregated = result.aggregate_port_utilization
        for p in ports:
            samples[p].append(min(2.0, aggregated.get(p, 0.0)))
    return samples


def run(config: ExperimentConfig) -> ExperimentResult:
    """Figure 3: FU-port utilization across SPEC SMT co-location pairs."""
    samples = aggregate_port_samples()
    rows = []
    medians = {}
    for port in _PORTS:
        cdf = empirical_cdf(samples[port])
        medians[port] = cdf.median
        rows.append(tuple(
            [f"port {port}"] + [cdf.quantile(q) for q in _QUANTILES]
        ))
    return ExperimentResult(
        experiment_id="fig3",
        title="Aggregated FU-port utilization CDFs (all SPEC pairs)",
        paper_claim="ports 0 and 1 have similar utilization distributions, "
                    "distinctly different from port 5 (Finding 6)",
        headers=("port",) + tuple(f"p{int(q * 100)}" for q in _QUANTILES),
        rows=tuple(rows),
        metrics={
            "median_port0": medians[0],
            "median_port1": medians[1],
            "median_port5": medians[5],
            "port0_port1_median_gap": abs(medians[0] - medians[1]),
            "port5_vs_port0_median_gap": abs(medians[5] - medians[0]),
        },
    )
