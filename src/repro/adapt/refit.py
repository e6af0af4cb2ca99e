"""Incremental refitting of the Sen x Con regression from live residuals.

The serving engine audits one (predicted, actual) comparison per
colocation group at every fleet refresh. This module turns that stream
into candidate coefficient sets:

- :class:`RlsState` is a textbook recursive-least-squares estimator in
  inverse-covariance (P-matrix) form, with an exponential forgetting
  factor so a mid-day behavior shift outweighs a long morning of
  well-calibrated samples. With ``forgetting=1.0`` and a large initial
  variance it converges to the ordinary least-squares fit of
  :func:`repro.analysis.linreg.fit_least_squares` (the equivalence is
  tested).
- :class:`OnlineRefitter` owns one :class:`RlsState` per batch-instance
  count — mirroring ``SMiTe.server_models`` — plus a bounded sample
  window per count for the mini-batch full-refit fallback and a
  deterministic holdout split (every ``holdout_every``-th observation is
  reserved for the drift decider's sanity check and never trains).

Everything is driven by the simulated event stream: no wall clock, no
unseeded randomness, so two replays of the same trace refit identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.linreg import LinearModel, fit_least_squares
from repro.core.predictor import SMiTe
from repro.errors import ConfigurationError
from repro.obs import counter, span
from repro.workloads.cloudsuite import LatencySensitiveWorkload
from repro.workloads.profile import WorkloadProfile

__all__ = ["HoldoutSample", "OnlineRefitter", "RlsState"]

#: Denominator floor for the RLS gain update: a PSD P matrix keeps the
#: denominator >= forgetting, so anything below this is numerical decay.
_DENOM_FLOOR = 1e-9


class RlsState:
    """Recursive least squares over one feature space, with forgetting.

    Maintains ``beta`` (coefficients plus trailing intercept) and the
    inverse covariance ``P``; each :meth:`update` is a rank-1 correction.
    ``P`` is re-symmetrized every step so floating-point drift cannot
    accumulate into an indefinite matrix.
    """

    def __init__(
        self,
        n_features: int,
        *,
        forgetting: float = 1.0,
        init_variance: float = 1e8,
    ) -> None:
        if n_features < 1:
            raise ConfigurationError(
                f"RLS needs >= 1 feature, got {n_features}"
            )
        if not 0.0 < forgetting <= 1.0:
            raise ConfigurationError(
                f"forgetting factor must be in (0, 1], got {forgetting}"
            )
        if init_variance <= 0.0:
            raise ConfigurationError(
                f"initial variance must be positive, got {init_variance}"
            )
        self.n_features = n_features
        self.forgetting = forgetting
        self.samples = 0
        self._beta = np.zeros(n_features + 1)
        self._p = np.eye(n_features + 1) * init_variance

    def update(self, features: np.ndarray, target: float,
               count: int = 1) -> None:
        """Fold in ``count`` identical observations, one rank-1 step each."""
        x = np.empty(self.n_features + 1)
        x[:-1] = features
        x[-1] = 1.0
        lam = self.forgetting
        for _ in range(count):
            px = self._p @ x
            denom = lam + float(x @ px)
            if denom < _DENOM_FLOOR:
                # Degenerate covariance; skip rather than divide by ~0.
                continue
            gain = px / denom
            self._beta += gain * (target - float(x @ self._beta))
            p = (self._p - np.outer(gain, px)) / lam
            self._p = 0.5 * (p + p.T)
            self.samples += 1

    @property
    def coefficients(self) -> np.ndarray:
        """Current feature weights (intercept excluded), a copy."""
        return self._beta[:-1].copy()

    @property
    def intercept(self) -> float:
        return float(self._beta[-1])

    def model(self, feature_names: tuple[str, ...] = ()) -> LinearModel:
        """The current estimate as a :class:`LinearModel`.

        ``r_squared`` is not tracked incrementally; callers that need a
        fit quality score evaluate on their own holdout set.
        """
        return LinearModel(
            coefficients=self.coefficients,
            intercept=self.intercept,
            r_squared=float("nan"),
            feature_names=feature_names,
        )


@dataclass(frozen=True)
class HoldoutSample:
    """One reserved observation: never trains, only judges candidates."""

    instances: int
    features: np.ndarray
    actual: float
    #: What the model serving at observation time predicted — the
    #: baseline a candidate must beat on the holdout set.
    predicted: float
    count: int


@dataclass
class _CountState:
    """Per-instance-count refit state: RLS plus the mini-batch window."""

    rls: RlsState
    #: Bounded FIFO of (features, actual, count) training rows for the
    #: window-close full refit; old rows fall off the front.
    window: list[tuple[np.ndarray, float, int]] = field(default_factory=list)


class OnlineRefitter:
    """Streams audited comparisons into per-count candidate regressions."""

    def __init__(
        self,
        predictor: SMiTe,
        *,
        window: int = 256,
        holdout_every: int = 8,
        min_samples: int = 24,
        forgetting: float = 0.97,
    ) -> None:
        if window < 8:
            raise ConfigurationError(
                f"refit window must be >= 8 samples, got {window}"
            )
        if holdout_every < 2:
            raise ConfigurationError(
                f"holdout_every must be >= 2, got {holdout_every}"
            )
        if min_samples < 2:
            raise ConfigurationError(
                f"min_samples must be >= 2, got {min_samples}"
            )
        self.predictor = predictor
        self.window = window
        self.holdout_every = holdout_every
        self.min_samples = min_samples
        self.forgetting = forgetting
        self._counts: dict[int, _CountState] = {}
        self._holdout: list[HoldoutSample] = []
        self._seen = 0
        self._n_features: int | None = None
        self._feature_names: tuple[str, ...] = ()

    # ------------------------------------------------------------------

    @property
    def observations(self) -> int:
        """Audited comparisons fed in so far (training plus holdout)."""
        return self._seen

    @property
    def holdout(self) -> tuple[HoldoutSample, ...]:
        return tuple(self._holdout)

    def features_for(
        self,
        latency_app: LatencySensitiveWorkload,
        batch_profile: WorkloadProfile,
        instances: int,
    ) -> np.ndarray:
        """The Sen x Con interaction vector behind one audited group.

        Mirrors ``SMiTe.predict_server``: the latency app's per-count
        server characterization crossed with the batch profile's pair
        characterization. Both are already cached on the predictor by
        the time a comparison is audited (a prediction was made), so
        this never triggers new simulator solves on the audit path.
        """
        server_char = self.predictor.characterize_server(
            latency_app.profile, instances=instances,
        )
        batch_char = self.predictor.characterization(batch_profile)
        return self.predictor.model.features(server_char, batch_char)

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
        """Fold one audited comparison into the refit stream.

        Every ``holdout_every``-th observation (a deterministic modulus
        over the arrival order, identical in-process and sharded) is
        reserved for candidate evaluation instead of training.
        """
        if count < 1 or instances < 1:
            return
        features = self.features_for(latency_app, batch_profile, instances)
        if self._n_features is None:
            self._n_features = int(features.size)
            self._feature_names = tuple(
                f"sen*con[{d.name}]" for d in self.predictor.model.dimensions
            )
        counter("serve.adapt.observations").inc(count)
        index = self._seen
        self._seen += 1
        if index % self.holdout_every == self.holdout_every - 1:
            self._holdout.append(HoldoutSample(
                instances=instances, features=features,
                actual=float(actual), predicted=float(predicted),
                count=count,
            ))
            if len(self._holdout) > self.window:
                del self._holdout[0]
            return
        state = self._counts.get(instances)
        if state is None:
            state = _CountState(rls=RlsState(
                self._n_features, forgetting=self.forgetting,
            ))
            self._counts[instances] = state
        state.rls.update(features, float(actual), count)
        state.window.append((features, float(actual), count))
        if len(state.window) > self.window:
            del state.window[0]

    # -- candidate construction ----------------------------------------

    def _usable_counts(self) -> list[int]:
        return sorted(
            k for k, state in self._counts.items()
            if state.rls.samples >= self.min_samples
        )

    def candidate(self) -> dict[int, LinearModel] | None:
        """The RLS estimate per usable instance count, or None if none."""
        counts = self._usable_counts()
        if not counts:
            return None
        with span("serve.adapt.refit"):
            return {
                k: self._counts[k].rls.model(self._feature_names)
                for k in counts
            }

    def refit_candidate(self) -> dict[int, LinearModel] | None:
        """Mini-batch full refit over each count's sample window.

        The fallback when the RLS estimate fails the drift decider's
        holdout check: ordinary least squares over the bounded recent
        window, which forgets the pre-shift regime entirely. Counts
        whose window is too small for a full fit keep their RLS model.
        """
        counts = self._usable_counts()
        if not counts:
            return None
        with span("serve.adapt.refit"):
            counter("serve.adapt.refits").inc()
            models: dict[int, LinearModel] = {}
            assert self._n_features is not None
            for k in counts:
                state = self._counts[k]
                rows = [f for f, _y, _c in state.window]
                targets = [y for _f, y, _c in state.window]
                weights = [c for _f, _y, c in state.window]
                n_rows = sum(weights)
                if n_rows <= self._n_features:
                    models[k] = state.rls.model(self._feature_names)
                    continue
                matrix = np.repeat(np.vstack(rows), weights, axis=0)
                response = np.repeat(np.asarray(targets), weights)
                models[k] = fit_least_squares(
                    matrix, response,
                    feature_names=self._feature_names,
                )
            return models

    def holdout_error(
        self, models: dict[int, LinearModel] | None
    ) -> float | None:
        """Weighted mean absolute error of a candidate on the holdout set.

        ``models=None`` scores the models that actually served each
        holdout observation (the recorded predictions) — the incumbent
        baseline a candidate must not lose to. Returns None when no
        holdout samples exist yet.
        """
        total = 0.0
        weight = 0
        for sample in self._holdout:
            if models is None:
                predicted = sample.predicted
            else:
                model = _nearest_model(models, sample.instances)
                if model is None:
                    predicted = sample.predicted
                else:
                    predicted = max(0.0, model.predict(sample.features))
            total += abs(predicted - sample.actual) * sample.count
            weight += sample.count
        return (total / weight) if weight else None


def _nearest_model(
    models: dict[int, LinearModel], instances: int
) -> LinearModel | None:
    """The model for the nearest calibrated count (ties to the smaller)."""
    if not models:
        return None
    model = models.get(instances)
    if model is None:
        nearest = min(sorted(models), key=lambda k: abs(k - instances))
        model = models[nearest]
    return model
