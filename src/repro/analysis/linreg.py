"""Ordinary least squares with an optional ridge penalty.

Both the SMiTe model (Equation 3) and the PMU baseline (Equation 9) are
linear regressions; this module is the single fitting backend for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError

__all__ = ["LinearModel", "fit_least_squares", "nnls"]


@dataclass(frozen=True)
class LinearModel:
    """A fitted linear model ``y = X @ coefficients + intercept``."""

    coefficients: np.ndarray
    intercept: float
    r_squared: float
    feature_names: tuple[str, ...] = ()

    @property
    def n_features(self) -> int:
        return int(self.coefficients.size)

    def predict(self, features: Sequence[float] | np.ndarray) -> float:
        """Predict the response for one feature vector."""
        x = np.asarray(features, dtype=float)
        if x.ndim != 1 or x.size != self.coefficients.size:
            raise ConfigurationError(
                f"expected {self.coefficients.size} features, got shape {x.shape}"
            )
        return float(x @ self.coefficients + self.intercept)

    def predict_many(self, matrix: np.ndarray) -> np.ndarray:
        """Predict responses for a 2-D feature matrix (rows = samples)."""
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] != self.coefficients.size:
            raise ConfigurationError(
                f"expected (n, {self.coefficients.size}) matrix, got {m.shape}"
            )
        return m @ self.coefficients + self.intercept

    def describe(self) -> str:
        """Human-readable coefficient listing for reports."""
        names = self.feature_names or tuple(
            f"x{i}" for i in range(self.coefficients.size)
        )
        parts = [f"{name}: {c:+.4f}" for name, c in zip(names, self.coefficients)]
        parts.append(f"intercept: {self.intercept:+.4f}")
        parts.append(f"R^2: {self.r_squared:.4f}")
        return ", ".join(parts)


def fit_least_squares(
    matrix: np.ndarray,
    response: Sequence[float],
    *,
    ridge: float = 0.0,
    nonnegative: bool = False,
    feature_names: Sequence[str] = (),
) -> LinearModel:
    """Fit ``response ~ matrix`` with an intercept.

    ``ridge`` adds an L2 penalty (not applied to the intercept); useful when
    feature columns are nearly collinear, which happens for the PMU baseline
    where several counters move together.

    ``nonnegative`` constrains every feature coefficient (not the
    intercept) to be >= 0 — appropriate when features are interference
    terms, which can only ever add degradation. Collinear unconstrained
    fits produce large sign-flipping coefficient pairs that extrapolate
    catastrophically outside the training population.
    """
    x = np.asarray(matrix, dtype=float)
    y = np.asarray(response, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError(f"feature matrix must be 2-D, got shape {x.shape}")
    if y.ndim != 1 or y.size != x.shape[0]:
        raise ConfigurationError(
            f"response must be 1-D with {x.shape[0]} rows, got shape {y.shape}"
        )
    if x.shape[0] <= x.shape[1]:
        raise ConfigurationError(
            f"need more samples ({x.shape[0]}) than features ({x.shape[1]})"
        )
    if ridge < 0.0:
        raise ConfigurationError(f"ridge penalty must be >= 0, got {ridge}")
    if feature_names and len(feature_names) != x.shape[1]:
        raise ConfigurationError(
            f"got {len(feature_names)} feature names for {x.shape[1]} features"
        )

    design = np.hstack([x, np.ones((x.shape[0], 1))])
    if nonnegative:
        beta = _fit_nonnegative(design, y, ridge)
    elif ridge > 0.0:
        penalty = ridge * np.eye(design.shape[1])
        penalty[-1, -1] = 0.0  # leave the intercept unpenalized
        gram = design.T @ design + penalty
        beta = np.linalg.solve(gram, design.T @ y)
    else:
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)

    fitted = design @ beta
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearModel(
        coefficients=beta[:-1],
        intercept=float(beta[-1]),
        r_squared=r_squared,
        feature_names=tuple(feature_names),
    )


def _fit_nonnegative(design: np.ndarray, y: np.ndarray,
                     ridge: float) -> np.ndarray:
    """NNLS over the features; the intercept stays unconstrained.

    The intercept (last design column) is split into +1/-1 columns so its
    net coefficient can take either sign while NNLS constrains
    everything it sees.
    """
    features = design[:, :-1]
    n = features.shape[1]
    ones = np.ones((features.shape[0], 1))
    augmented = np.hstack([features, ones, -ones])
    if ridge > 0.0:
        # Tikhonov rows shrink the feature coefficients only.
        penalty = np.sqrt(ridge) * np.eye(n)
        penalty = np.hstack([penalty, np.zeros((n, 2))])
        augmented = np.vstack([augmented, penalty])
        y = np.concatenate([y, np.zeros(n)])
    solution = nnls(augmented, y)
    beta = np.empty(n + 1)
    beta[:n] = solution[:n]
    beta[n] = solution[n] - solution[n + 1]
    return beta


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``argmin ||a @ x - b||`` subject to ``x >= 0``.

    Lawson and Hanson's active-set method (*Solving Least Squares
    Problems*, 1974, ch. 23): move the column with the steepest descent
    into the passive set, solve the unconstrained least squares on the
    passive columns, and step back toward the last feasible point
    whenever that solution leaves the orthant.
    """
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    scale = np.abs(a).sum(axis=0).max() * max(a.shape)
    tol = 10.0 * np.finfo(float).eps * scale
    for _ in range(3 * n):
        gradient = a.T @ (b - a @ x)
        gradient[passive] = -np.inf
        j = int(np.argmax(gradient))
        if gradient[j] <= tol:
            return x
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            blocking = passive & (z <= 0.0)
            if not blocking.any():
                break
            x += np.min(x[blocking] / np.maximum(
                x[blocking] - z[blocking], np.finfo(float).tiny)) * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
        x = z
    raise ConvergenceError(f"NNLS did not converge in {3 * n} iterations")
