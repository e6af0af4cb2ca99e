"""The drift policy: when does a closed SLO window justify a hot-swap?

The audit layer publishes one ``calibration_drift`` (mean absolute
prediction residual) per closed SLO window. This module turns that
signal into swap decisions with three stabilizers so transient noise
cannot thrash the serving coefficients:

- **threshold** — only windows whose drift exceeds ``drift_bound``
  count;
- **hysteresis** — ``hysteresis`` *consecutive* over-bound windows are
  required before a swap is attempted (one noisy window resets nothing
  into motion);
- **cooldown** — after any install (or revert) the next ``cooldown``
  window closes are ignored entirely: their residuals still blend
  predictions from before the swap, so judging the new model on them
  would double-trigger.

A triggered swap is not unconditional: the RLS candidate must beat the
incumbent's recorded predictions on the refitter's deterministic holdout
set; failing that, the mini-batch full refit gets one try; failing
*that*, the controller sheds back to the static offline coefficients
(if an override is live) rather than serve a model it cannot validate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adapt.refit import OnlineRefitter
from repro.adapt.swap import ModelRegistry
from repro.errors import ConfigurationError
from repro.obs import counter
from repro.serve.slo import SloWindow, WindowedSlo
from repro.workloads.cloudsuite import LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile

__all__ = ["AdaptationController", "DriftPolicy"]


@dataclass(frozen=True)
class DriftPolicy:
    """Threshold + hysteresis + cooldown knobs for the drift loop."""

    #: Mean-absolute-residual bound a window must exceed to count.
    drift_bound: float = 0.05
    #: Consecutive over-bound windows required to attempt a swap.
    hysteresis: int = 2
    #: Window closes ignored after any install or revert.
    cooldown: int = 1

    def __post_init__(self) -> None:
        if self.drift_bound <= 0.0:
            raise ConfigurationError(
                f"drift bound must be positive, got {self.drift_bound}"
            )
        if self.hysteresis < 1:
            raise ConfigurationError(
                f"hysteresis must be >= 1 window, got {self.hysteresis}"
            )
        if self.cooldown < 0:
            raise ConfigurationError(
                f"cooldown must be >= 0 windows, got {self.cooldown}"
            )


class AdaptationController:
    """Consumes window drift, decides swaps, drives the registry.

    The engine calls :meth:`observe` alongside every audited comparison
    and :meth:`end_epoch` at every epoch boundary (after scoring, before
    the next epoch's decisions) — so coefficient swaps land exactly on
    epoch boundaries, which is what keeps in-process, sharded and
    per-event reference adaptive replays byte-identical.
    """

    def __init__(
        self,
        refitter: OnlineRefitter,
        registry: ModelRegistry,
        slo: WindowedSlo,
        *,
        policy: DriftPolicy | None = None,
    ) -> None:
        self.refitter = refitter
        self.registry = registry
        self.slo = slo
        self.policy = policy if policy is not None else DriftPolicy()
        self._windows_seen = 0
        self._streak = 0
        self._cooldown = 0

    # ------------------------------------------------------------------

    def observe(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        instances: int,
        *,
        predicted: float,
        actual: float,
        count: int = 1,
    ) -> None:
        """Forward one audited comparison to the refitter."""
        self.refitter.observe(
            latency_app, batch_profile, instances,
            predicted=predicted, actual=actual, count=count,
        )

    def end_epoch(self, epoch_s: float) -> bool:
        """Process any windows closed this epoch; True if the model changed.

        The caller must invalidate its prediction memos when this
        returns True — the coefficients serving the next epoch differ.
        """
        windows = self.slo.closed_windows
        new = windows[self._windows_seen:]
        self._windows_seen = len(windows)
        changed = False
        for window in new:
            if self._on_window(window, epoch_s):
                changed = True
        return changed

    # ------------------------------------------------------------------

    def _on_window(self, window: SloWindow, epoch_s: float) -> bool:
        drift = window.calibration_drift
        if drift is None:
            return False
        if self._cooldown > 0:
            self._cooldown -= 1
            return False
        if drift <= self.policy.drift_bound:
            self._streak = 0
            return False
        self._streak += 1
        if self._streak < self.policy.hysteresis:
            return False
        self._streak = 0
        self._cooldown = self.policy.cooldown
        return self._attempt_swap(epoch_s)

    def _attempt_swap(self, epoch_s: float) -> bool:
        refitter = self.refitter
        incumbent_error = refitter.holdout_error(None)
        candidate = refitter.candidate()
        if self._passes_holdout(candidate, incumbent_error):
            self.registry.install(candidate, origin="rls", epoch_s=epoch_s)
            return True
        counter("serve.adapt.rejected").inc()
        fallback = refitter.refit_candidate()
        if self._passes_holdout(fallback, incumbent_error):
            self.registry.install(fallback, origin="batch", epoch_s=epoch_s)
            return True
        counter("serve.adapt.rejected").inc()
        if self.registry.service.model_override is not None:
            # Shed to static: better the offline coefficients than an
            # override we can no longer validate.
            self.registry.revert(epoch_s=epoch_s)
            return True
        return False

    def _passes_holdout(self, candidate, incumbent_error) -> bool:
        """The holdout sanity check: never lose to what already served."""
        if candidate is None:
            return False
        if incumbent_error is None:
            # No holdout samples yet — nothing to validate against.
            return False
        candidate_error = self.refitter.holdout_error(candidate)
        return (candidate_error is not None
                and candidate_error <= incumbent_error)
