"""Basic statistics: Pearson correlation, empirical CDFs, summaries.

These are the primitives behind the paper's Figure 3/5 (utilization CDFs)
and Figure 7 (correlation among sharing dimensions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "pearson",
    "pearson_matrix",
    "empirical_cdf",
    "EmpiricalCdf",
    "summarize",
    "DistributionSummary",
]


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient between two equal-length samples.

    Returns 0.0 when either sample has zero variance (no linear relationship
    is measurable), matching how the paper treats degenerate dimensions.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ConfigurationError(
            f"pearson requires two 1-D samples of equal length, "
            f"got shapes {xa.shape} and {ya.shape}"
        )
    if xa.size < 2:
        raise ConfigurationError("pearson requires at least two observations")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = float(np.sqrt((xc * xc).sum() * (yc * yc).sum()))
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


def pearson_matrix(columns: Sequence[Sequence[float]]) -> np.ndarray:
    """Pairwise Pearson coefficients for a list of equally sized columns.

    Returns an ``(n, n)`` symmetric matrix with unit diagonal. Used for
    Figure 7, where the columns are the 14 sensitivity/contentiousness
    dimensions measured across all benchmarks.
    """
    n = len(columns)
    if n == 0:
        raise ConfigurationError("pearson_matrix requires at least one column")
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            r = pearson(columns[i], columns[j])
            out[i, j] = r
            out[j, i] = r
    return out


@dataclass(frozen=True)
class EmpiricalCdf:
    """An empirical cumulative distribution function over a finite sample."""

    values: np.ndarray  # sorted ascending
    probabilities: np.ndarray  # cumulative, in (0, 1]

    def at(self, x: float) -> float:
        """P(X <= x) under the empirical distribution."""
        idx = int(np.searchsorted(self.values, x, side="right"))
        if idx == 0:
            return 0.0
        return float(self.probabilities[idx - 1])

    def quantile(self, p: float) -> float:
        """Smallest sample value v with P(X <= v) >= p."""
        if not 0.0 < p <= 1.0:
            raise ConfigurationError(f"quantile level must be in (0, 1], got {p}")
        idx = int(np.searchsorted(self.probabilities, p, side="left"))
        idx = min(idx, len(self.values) - 1)
        return float(self.values[idx])

    @property
    def median(self) -> float:
        return self.quantile(0.5)


def empirical_cdf(sample: Sequence[float]) -> EmpiricalCdf:
    """Build an :class:`EmpiricalCdf` from a sample."""
    arr = np.sort(np.asarray(sample, dtype=float))
    if arr.size == 0:
        raise ConfigurationError("cannot build a CDF from an empty sample")
    probs = np.arange(1, arr.size + 1, dtype=float) / arr.size
    return EmpiricalCdf(values=arr, probabilities=probs)


@dataclass(frozen=True)
class DistributionSummary:
    """Min / mean / median / max / stddev of a sample."""

    count: int
    minimum: float
    mean: float
    median: float
    maximum: float
    stddev: float


def summarize(sample: Sequence[float]) -> DistributionSummary:
    """Summarize a sample the way the paper's bar charts report ranges."""
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("cannot summarize an empty sample")
    return DistributionSummary(
        count=int(arr.size),
        minimum=float(arr.min()),
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        maximum=float(arr.max()),
        stddev=float(arr.std()),
    )
