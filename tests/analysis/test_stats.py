"""Unit tests for repro.analysis.stats."""

import math

import numpy as np
import pytest

from repro.analysis.stats import (
    empirical_cdf,
    pearson,
    pearson_matrix,
    summarize,
)
from repro.errors import ConfigurationError


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3, 4], [2, 4, 6, 8]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_uncorrelated_orthogonal(self):
        # Antisymmetric x against symmetric y: zero covariance.
        assert pearson([-1, 0, 1], [1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_returns_zero(self):
        assert pearson([5, 5, 5], [1, 2, 3]) == 0.0
        assert pearson([1, 2, 3], [7, 7, 7]) == 0.0

    def test_shift_and_scale_invariance(self):
        x = [0.1, 0.7, 0.3, 0.9]
        y = [10.0, 14.0, 11.0, 17.0]
        base = pearson(x, y)
        assert pearson([v * 3 + 1 for v in x], y) == pytest.approx(base)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            pearson([1, 2], [1, 2, 3])

    def test_single_point_rejected(self):
        with pytest.raises(ConfigurationError):
            pearson([1], [2])


class TestPearsonMatrix:
    def test_diagonal_is_one(self):
        m = pearson_matrix([[1, 2, 3], [3, 1, 2], [2, 2, 9]])
        assert np.allclose(np.diag(m), 1.0)

    def test_symmetric(self):
        m = pearson_matrix([[1, 2, 3], [1, 3, 9], [5, 1, 2]])
        assert np.allclose(m, m.T)

    def test_matches_pairwise(self):
        cols = [[1.0, 2.0, 4.0], [2.0, 1.0, 8.0]]
        m = pearson_matrix(cols)
        assert m[0, 1] == pytest.approx(pearson(cols[0], cols[1]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            pearson_matrix([])


class TestEmpiricalCdf:
    def test_quantiles(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.quantile(0.25) == 1.0
        assert cdf.quantile(0.5) == 2.0
        assert cdf.quantile(1.0) == 4.0

    def test_at(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.at(0.5) == 0.0
        assert cdf.at(2.0) == pytest.approx(0.5)
        assert cdf.at(100.0) == 1.0

    def test_median(self):
        assert empirical_cdf([5.0, 1.0, 3.0]).median == 3.0

    def test_unsorted_input_sorted(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert list(cdf.values) == [1.0, 2.0, 3.0]

    def test_invalid_quantile_level(self):
        cdf = empirical_cdf([1.0])
        with pytest.raises(ConfigurationError):
            cdf.quantile(0.0)
        with pytest.raises(ConfigurationError):
            cdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([])


class TestSummarize:
    def test_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.stddev == pytest.approx(math.sqrt(1.25))

    def test_single_value(self):
        s = summarize([7.0])
        assert s.minimum == s.maximum == s.mean == 7.0
        assert s.stddev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])
