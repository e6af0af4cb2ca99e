"""Unit tests for the least-squares backend."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.linreg import LinearModel, fit_least_squares, nnls
from repro.errors import ConfigurationError

SRC = Path(__file__).resolve().parents[2] / "src"


def _make_data(coefs, intercept, n=60, seed=3, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, len(coefs)))
    y = x @ np.array(coefs) + intercept
    if noise:
        y = y + rng.normal(0, noise, size=n)
    return x, y


class TestFit:
    def test_recovers_exact_coefficients(self):
        x, y = _make_data([2.0, -1.5, 0.5], intercept=0.25)
        model = fit_least_squares(x, y)
        assert model.coefficients == pytest.approx([2.0, -1.5, 0.5])
        assert model.intercept == pytest.approx(0.25)
        assert model.r_squared == pytest.approx(1.0)

    def test_noisy_fit_close(self):
        x, y = _make_data([1.0, 3.0], intercept=-1.0, noise=0.01)
        model = fit_least_squares(x, y)
        assert model.coefficients == pytest.approx([1.0, 3.0], abs=0.02)
        assert model.r_squared > 0.99

    def test_ridge_shrinks_coefficients(self):
        x, y = _make_data([5.0], intercept=0.0)
        plain = fit_least_squares(x, y)
        ridged = fit_least_squares(x, y, ridge=10.0)
        assert abs(ridged.coefficients[0]) < abs(plain.coefficients[0])

    def test_ridge_leaves_intercept_unpenalized(self):
        x, y = _make_data([0.0], intercept=100.0)
        model = fit_least_squares(x, y, ridge=1000.0)
        assert model.intercept == pytest.approx(100.0, rel=1e-6)

    def test_nonnegative_clamps_negative_truth(self):
        x, y = _make_data([-2.0, 1.0], intercept=0.0)
        model = fit_least_squares(x, y, nonnegative=True)
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-9)
        assert model.coefficients[1] >= 0.0

    def test_nonnegative_recovers_positive_truth(self):
        x, y = _make_data([2.0, 0.7], intercept=-0.3)
        model = fit_least_squares(x, y, nonnegative=True)
        assert model.coefficients == pytest.approx([2.0, 0.7], abs=1e-8)
        assert model.intercept == pytest.approx(-0.3, abs=1e-8)

    def test_nonnegative_allows_negative_intercept(self):
        x, y = _make_data([1.0], intercept=-5.0)
        model = fit_least_squares(x, y, nonnegative=True)
        assert model.intercept == pytest.approx(-5.0, abs=1e-8)

    def test_more_features_than_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_least_squares(np.ones((3, 3)), [1.0, 2.0, 3.0])

    def test_negative_ridge_rejected(self):
        x, y = _make_data([1.0], 0.0)
        with pytest.raises(ConfigurationError):
            fit_least_squares(x, y, ridge=-1.0)

    def test_feature_name_count_checked(self):
        x, y = _make_data([1.0, 2.0], 0.0)
        with pytest.raises(ConfigurationError):
            fit_least_squares(x, y, feature_names=["only-one"])


class TestPredict:
    def test_predict_roundtrip(self):
        x, y = _make_data([1.5, -0.5], intercept=2.0)
        model = fit_least_squares(x, y)
        assert model.predict(x[0]) == pytest.approx(y[0])

    def test_predict_many_matches_predict(self):
        x, y = _make_data([0.3, 0.8, -0.2], intercept=0.1)
        model = fit_least_squares(x, y)
        batch = model.predict_many(x[:5])
        singles = [model.predict(row) for row in x[:5]]
        assert batch == pytest.approx(singles)

    def test_wrong_feature_count_rejected(self):
        model = LinearModel(coefficients=np.array([1.0, 2.0]), intercept=0.0,
                            r_squared=1.0)
        with pytest.raises(ConfigurationError):
            model.predict([1.0])
        with pytest.raises(ConfigurationError):
            model.predict_many(np.ones((2, 3)))

    def test_describe_mentions_names(self):
        x, y = _make_data([1.0], 0.0)
        model = fit_least_squares(x, y, feature_names=["pressure"])
        assert "pressure" in model.describe()
        assert "R^2" in model.describe()


def _nnls_problem(rng):
    """A random NNLS problem shaped like ``_fit_nonnegative``'s."""
    rows = int(rng.integers(8, 60))
    n = int(rng.integers(1, 9))
    features = rng.normal(size=(rows, n)) * rng.uniform(0.01, 3.0)
    ones = np.ones((rows, 1))
    a = np.hstack([features, ones, -ones])
    b = features @ rng.normal(size=n) + rng.normal(scale=0.3, size=rows)
    if rng.random() < 0.5:
        ridge = np.sqrt(rng.uniform(1e-4, 1.0)) * np.eye(n)
        a = np.vstack([a, np.hstack([ridge, np.zeros((n, 2))])])
        b = np.concatenate([b, np.zeros(n)])
    return a, b


class TestNnls:
    def test_matches_scipy_oracle(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(2014)
        for _ in range(500):
            a, b = _nnls_problem(rng)
            x = nnls(a, b)
            _want, want_norm = scipy_optimize.nnls(a, b)
            assert (x >= 0.0).all()
            got_norm = np.linalg.norm(a @ x - b)
            assert got_norm == pytest.approx(want_norm, rel=1e-12, abs=1e-300)

    def test_zero_when_nothing_helps(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert nnls(a, np.array([-1.0, -1.0, -1.0])).tolist() == [0.0, 0.0]

    def test_fitting_smite_never_imports_scipy(self):
        # numpy is the only runtime dependency: scipy is a test oracle.
        code = """
import sys
import numpy as np
from repro.core.characterize import Characterization
from repro.core.model import SMiTeModel
from repro.rulers.base import Dimension
rng = np.random.default_rng(0)
chars = [Characterization(f"w{i}", dict(zip(Dimension, rng.uniform(size=7))),
                          dict(zip(Dimension, rng.uniform(size=7))))
         for i in range(6)]
pairs = [(v, a, float(rng.uniform())) for v in chars for a in chars]
assert SMiTeModel().fit(pairs).is_fitted
assert "scipy" not in sys.modules, "fitting imported scipy"
"""
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
