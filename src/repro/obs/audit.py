"""Per-decision prediction-accuracy audit: predicted vs realized QoS.

SMiTe's claim is *precise* degradation prediction; this module keeps the
books on how precise a live run actually was. The serving engine feeds
one comparison per colocated server per fleet refresh — the degradation
the :class:`~repro.serve.service.PredictionService` predicted for that
(latency app, batch profile, instance count) against the degradation
the simulator measured for that colocation state — and
:class:`PredictionAudit` rolls the residuals up three ways:

- **registry metrics** (``serve.audit.samples``,
  ``serve.audit.abs_residual``) so residual distributions merge across
  workers like any other metric;
- **attribution tables**: signed/absolute residual statistics per
  service pool and per (pool, batch profile) pair, exported in the run
  report's ``audit`` section;
- a **windowed drift signal**: :meth:`PredictionAudit.close_window`
  drains the residuals accrued since the last SLO-window close, which
  :class:`~repro.serve.slo.WindowedSlo` folds into its accounting and
  publishes as the ``serve.audit.drift`` gauge.

Residuals are signed as ``predicted - actual``: a positive bias means
the predictor is conservative (over-predicts degradation), a negative
bias means it admits placements it should not.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Mapping

from repro.obs.registry import counter, histogram

__all__ = ["PredictionAudit", "ResidualStats"]

#: Separator joining (pool, batch profile) into one JSON-able pair key.
PAIR_SEP = "|"


@dataclass
class ResidualStats:
    """A mergeable accumulator of signed prediction residuals."""

    count: int = 0
    sum_signed: float = 0.0
    sum_abs: float = 0.0
    max_abs: float = 0.0

    def add(self, residual: float, count: int = 1) -> None:
        """Fold in ``count`` identical residual observations at once."""
        self.count += count
        self.sum_signed += residual * count
        self.sum_abs += abs(residual) * count
        self.max_abs = max(self.max_abs, abs(residual))

    @property
    def mean_abs(self) -> float:
        """Mean absolute residual (0 when empty)."""
        return self.sum_abs / self.count if self.count else 0.0

    @property
    def mean_signed(self) -> float:
        """Mean signed residual — the calibration bias (0 when empty)."""
        return self.sum_signed / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict, JSON-able copy."""
        return {
            "count": self.count,
            "sum_signed": self.sum_signed,
            "sum_abs": self.sum_abs,
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "mean_signed": self.mean_signed,
        }

    def merge_snapshot(self, snap: Mapping[str, Any]) -> None:
        """Fold another accumulator's snapshot into this one."""
        self.count += int(snap["count"])
        self.sum_signed += float(snap["sum_signed"])
        self.sum_abs += float(snap["sum_abs"])
        self.max_abs = max(self.max_abs, float(snap["max_abs"]))


class PredictionAudit:
    """Rolls per-decision residuals into pool/pair attribution tables."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.overall = ResidualStats()
        self.pools: dict[str, ResidualStats] = {}
        self.pairs: dict[str, ResidualStats] = {}
        self._window = ResidualStats()

    @property
    def samples(self) -> int:
        """Comparisons recorded so far."""
        return self.overall.count

    def record(
        self,
        pool: str,
        batch_profile: str,
        *,
        predicted: float,
        actual: float,
        count: int = 1,
    ) -> None:
        """Record a predicted-vs-realized comparison.

        ``count`` records the comparison for that many identical
        placements in one update — the engine audits per group of
        same-(pool, profile, instances) servers, not per server.
        """
        if count < 1:
            return
        residual = float(predicted) - float(actual)
        counter("serve.audit.samples").inc(count)
        histogram("serve.audit.abs_residual").record(abs(residual), count)
        pair = f"{pool}{PAIR_SEP}{batch_profile}"
        with self._lock:
            self.overall.add(residual, count)
            self.pools.setdefault(pool, ResidualStats()).add(residual, count)
            self.pairs.setdefault(pair, ResidualStats()).add(residual, count)
            self._window.add(residual, count)

    def close_window(self) -> float:
        """Drain the window accumulator; returns its mean absolute residual.

        Called by :class:`~repro.serve.slo.WindowedSlo` at each window
        close; the returned value is that window's calibration drift.
        """
        with self._lock:
            drift = self._window.mean_abs
            self._window = ResidualStats()
            return drift

    # -- aggregation ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The audit section of a run report: JSON-able and mergeable.

        The ``window`` entry carries the still-open drift window so a
        worker snapshot folded back mid-window contributes to the
        parent's next :meth:`close_window` — without it, shard residuals
        would count toward attribution but vanish from the drift signal.
        """
        with self._lock:
            return {
                "samples": self.overall.count,
                "overall": self.overall.snapshot(),
                "window": self._window.snapshot(),
                "pools": {name: stats.snapshot()
                          for name, stats in sorted(self.pools.items())},
                "pairs": {name: stats.snapshot()
                          for name, stats in sorted(self.pairs.items())},
            }

    def merge(self, snap: Mapping[str, Any]) -> None:
        """Fold a snapshot (e.g. from a worker process) into this audit.

        Tolerates partial snapshots: any absent table (including
        ``overall`` and the pre-PR-9 snapshots without a ``window``
        entry) merges as empty rather than raising.
        """
        with self._lock:
            if "overall" in snap:
                self.overall.merge_snapshot(snap["overall"])
            if "window" in snap:
                self._window.merge_snapshot(snap["window"])
            for table, own in (("pools", self.pools), ("pairs", self.pairs)):
                for name, stats_snap in snap.get(table, {}).items():
                    own.setdefault(name, ResidualStats()).merge_snapshot(
                        stats_snap
                    )
