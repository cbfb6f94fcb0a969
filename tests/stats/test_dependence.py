"""Tests for general statistical dependence measures."""

import numpy as np
import pytest

from repro.errors import EmptyColumnError
from repro.stats.dependence import (
    chi_square,
    contingency,
    contingency_table,
    factorize,
    correlation_ratio,
    cramers_v,
    discretize,
    mutual_information,
    numeric_mutual_information,
    symmetric_uncertainty,
)


class TestContingency:
    def test_counts(self):
        table = contingency_table(["a", "a", "b"], ["x", "y", "x"])
        assert table.shape == (2, 2)
        assert table.sum() == 3

    def test_missing_rows_dropped(self):
        table = contingency_table(["a", None, "b"], ["x", "y", None])
        assert table.sum() == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyColumnError):
            contingency_table([None], [None])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency_table(["a"], ["x", "y"])

    def test_levels_name_only_levels_in_complete_pairs(self):
        # "b" only meets a missing partner: it gets no row, and the
        # returned levels say which rows the counts have.
        result = contingency(*factorize(["a", "b", "c", "a"]),
                             *factorize(["u", None, "v", "v"]))
        assert result.row_levels == ["a", "c"]
        assert result.column_levels == ["u", "v"]
        assert result.counts.tolist() == [[1.0, 1.0], [0.0, 1.0]]

    def test_levels_come_out_in_label_order(self):
        result = contingency(np.array([0, 1, 2]), ["z", "a", "m"],
                             np.array([0, 0, 1]), ["y", "x"])
        assert result.row_levels == ["a", "m", "z"]
        assert result.column_levels == ["x", "y"]
        assert result.counts.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]

    def test_chi_square_independent_is_small(self):
        rng = np.random.default_rng(0)
        x = rng.choice(["a", "b"], 2000)
        y = rng.choice(["u", "v"], 2000)
        assert chi_square(contingency_table(x, y)) < 10.0


class TestCramersV:
    def test_perfect_association(self):
        x = ["a", "b", "c"] * 50
        assert cramers_v(x, x) == pytest.approx(1.0)

    def test_independence_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.choice(["a", "b", "c"], 5000)
        y = rng.choice(["u", "v", "w"], 5000)
        assert cramers_v(x, y) < 0.05

    def test_single_level_gives_zero(self):
        assert cramers_v(["a"] * 10, ["x", "y"] * 5) == 0.0


class TestMutualInformation:
    def test_identical_variables(self):
        x = ["a", "b"] * 100
        assert mutual_information(x, x) == pytest.approx(1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(2)
        x = rng.choice(["a", "b"], 5000)
        y = rng.choice(["u", "v"], 5000)
        assert mutual_information(x, y) < 0.01

    def test_symmetric_uncertainty_bounds(self):
        x = ["a", "b"] * 100
        assert symmetric_uncertainty(x, x) == pytest.approx(1.0)
        rng = np.random.default_rng(3)
        a = rng.choice(["a", "b"], 3000)
        b = rng.choice(["u", "v"], 3000)
        assert 0.0 <= symmetric_uncertainty(a, b) < 0.05

    def test_numeric_mutual_information_detects_nonlinear(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-3, 3, 5000)
        y = x**2 + 0.1 * rng.standard_normal(5000)
        independent = rng.uniform(-3, 3, 5000)
        assert numeric_mutual_information(x, y) > numeric_mutual_information(x, independent) + 0.3


class TestDiscretize:
    def test_bin_labels_and_missing(self):
        labels = discretize(np.array([0.0, 0.5, 1.0, np.nan]), bins=2)
        assert labels[-1] is None
        assert set(label for label in labels if label) <= {"bin0", "bin1"}

    def test_constant_column(self):
        assert discretize(np.array([2.0, 2.0]), bins=4) == ["bin0", "bin0"]

    def test_all_missing_raises(self):
        with pytest.raises(EmptyColumnError):
            discretize(np.array([np.nan]))


class TestCorrelationRatio:
    def test_perfect_separation(self):
        labels = ["a"] * 50 + ["b"] * 50
        values = np.concatenate([np.zeros(50), np.ones(50)])
        assert correlation_ratio(labels, values) == pytest.approx(1.0)

    def test_no_group_effect(self):
        rng = np.random.default_rng(5)
        labels = rng.choice(["a", "b", "c"], 5000).tolist()
        values = rng.standard_normal(5000)
        assert correlation_ratio(labels, values) < 0.01

    def test_constant_values(self):
        assert correlation_ratio(["a", "b"] * 5, np.ones(10)) == 0.0

    def test_missing_pairs_dropped(self):
        labels = ["a", None, "b", "b"]
        values = np.array([1.0, 2.0, np.nan, 3.0])
        assert 0.0 <= correlation_ratio(labels, values) <= 1.0

    def test_all_missing_labels_raise(self):
        with pytest.raises(EmptyColumnError):
            correlation_ratio([None] * 4, np.arange(4.0))
