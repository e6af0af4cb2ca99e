"""Experiment result/config types shared by all drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.tables import format_table
from repro.errors import ConfigurationError

__all__ = ["ExperimentConfig", "ExperimentResult"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment driver.

    ``fast`` shrinks the expensive studies (cluster size, DES job counts)
    for CI and benchmarking runs; results keep the same shape, with more
    sampling noise. ``seed`` seeds the cluster layouts, job traces and
    DES runs, so it moves only fig13–fig18, ``figs_online`` and
    ``figs_adaptive``. It does not reach the measurements: the
    simulators in :mod:`repro.experiments.context` keep their default
    jitter seed (0), so table1 and fig2–fig12 read the same numbers at
    every ``seed``.

    Must stay frozen and picklable: the parallel runner ships one config
    to every worker process, and the figure modules key their memoized
    fixtures on its field values.
    """

    fast: bool = False
    seed: int = 42

    @property
    def servers_per_app(self) -> int:
        return 150 if self.fast else 1000

    @property
    def des_jobs(self) -> int:
        return 20_000 if self.fast else 120_000


@dataclass(frozen=True)
class ExperimentResult:
    """The output of one experiment driver."""

    experiment_id: str
    title: str
    paper_claim: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    metrics: Mapping[str, float] = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.rows:
            raise ConfigurationError(
                f"{self.experiment_id}: experiment produced no rows"
            )

    def render(self) -> str:
        """Human-readable report block."""
        parts = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper: {self.paper_claim}",
            "",
            format_table(self.headers, self.rows),
        ]
        if self.metrics:
            parts.append("")
            parts.append("metrics: " + ", ".join(
                f"{k}={v:.4f}" for k, v in self.metrics.items()
            ))
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)

    def metric(self, name: str) -> float:
        try:
            return float(self.metrics[name])
        except KeyError as exc:
            raise ConfigurationError(
                f"{self.experiment_id} has no metric {name!r}; "
                f"available: {sorted(self.metrics)}"
            ) from exc

