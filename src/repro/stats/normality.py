"""Normality measures.

The usage scenario (paper section 4.1) reports that "Time Devoted To
Leisure has a Normal distribution while Self Reported Health has a
left-skewed distribution".  Foresight therefore needs a univariate
distribution-shape insight that ranks columns by how close to (or far from)
normal they are.  The metrics here support both directions:

* :func:`normality_score` — in [0, 1], higher = more normal-looking;
* :func:`non_normality_score` — its complement, used when hunting for
  interestingly *non*-normal columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from repro.errors import EmptyColumnError

#: Fewest non-missing values a normality test is run on.
MIN_VALUES = 8


@dataclass(frozen=True)
class NormalityResult:
    """Shape summary of a numeric column relative to the normal distribution."""

    skewness: float
    excess_kurtosis: float
    ks_statistic: float

    @property
    def shape_label(self) -> str:
        """Human-readable shape description used in insight summaries."""
        if abs(self.skewness) < 0.5 and abs(self.excess_kurtosis) < 1.0:
            return "approximately normal"
        if self.skewness <= -0.5:
            return "left-skewed"
        if self.skewness >= 0.5:
            return "right-skewed"
        if self.excess_kurtosis >= 1.0:
            return "heavy-tailed"
        return "light-tailed"

    @property
    def normality_score(self) -> float:
        """Score in [0, 1]; 1 = indistinguishable from a fitted normal.

        Combines the KS statistic with penalties for skewness and excess
        kurtosis, so the score degrades smoothly as the shape departs
        from normal even when the sample is too small for the KS test to
        reject.
        """
        ks_component = max(0.0, 1.0 - 2.0 * self.ks_statistic)
        skew_penalty = min(abs(self.skewness) / 2.0, 1.0)
        kurtosis_penalty = min(abs(self.excess_kurtosis) / 6.0, 1.0)
        shape_component = 1.0 - 0.5 * (skew_penalty + kurtosis_penalty)
        return float(max(0.0, min(1.0, 0.5 * ks_component + 0.5 * shape_component)))


def normality_tests(rows: np.ndarray) -> list[NormalityResult | None]:
    """:func:`normality_test` of every row of ``rows`` in one numpy pass.

    ``rows`` holds one column per row, NaN where missing (see
    :meth:`~repro.data.table.DataTable.numeric_rows`); rows with fewer
    than ``MIN_VALUES`` values give None.  The Kolmogorov–Smirnov
    statistic against the fitted normal is computed directly: sort, then
    compare the empirical CDF steps with ``ndtr`` of the standardised
    values.  Every reduction runs along ``axis=1``, so a row's result does
    not depend on the other rows.
    """
    rows = np.sort(np.asarray(rows, dtype=np.float64), axis=1)  # NaN last
    n = np.count_nonzero(~np.isnan(rows), axis=1)
    valid = np.arange(rows.shape[1]) < n[:, None]
    safe_n = np.maximum(n, 1)[:, None]
    mean = np.where(valid, rows, 0.0).sum(axis=1, keepdims=True) / safe_n
    centered = np.where(valid, rows - mean, 0.0)
    squared = centered * centered
    m2 = squared.sum(axis=1, keepdims=True) / safe_n
    m3 = (squared * centered).sum(axis=1, keepdims=True) / safe_n
    m4 = (squared * squared).sum(axis=1, keepdims=True) / safe_n
    sigma = np.sqrt(m2)
    spread = sigma > 0.0
    safe_sigma = np.where(spread, sigma, 1.0)
    cdf = ndtr(centered / safe_sigma)
    below = np.arange(rows.shape[1]) / safe_n        # (i - 1) / n
    above = np.arange(1, rows.shape[1] + 1) / safe_n  # i / n
    d_plus = np.where(valid, above - cdf, -np.inf).max(axis=1, initial=-np.inf)
    d_minus = np.where(valid, cdf - below, -np.inf).max(axis=1, initial=-np.inf)
    skew = (m3 / safe_sigma**3)[:, 0]
    kurt = (m4 / safe_sigma**4)[:, 0]
    results: list[NormalityResult | None] = []
    for i in range(rows.shape[0]):
        if n[i] < MIN_VALUES:
            results.append(None)
        elif not spread[i, 0]:
            results.append(NormalityResult(
                skewness=0.0, excess_kurtosis=-3.0, ks_statistic=1.0))
        else:
            results.append(NormalityResult(
                skewness=float(skew[i]),
                excess_kurtosis=float(kurt[i]) - 3.0,
                ks_statistic=float(max(d_plus[i], d_minus[i])),
            ))
    return results


def normality_test(values: np.ndarray) -> NormalityResult:
    """Kolmogorov–Smirnov statistic against a fitted normal plus moment shape."""
    values = np.asarray(values, dtype=np.float64)
    result = normality_tests(values[None, :])[0]
    if result is None:
        raise EmptyColumnError(
            f"need at least {MIN_VALUES} non-missing values, "
            f"got {int(np.count_nonzero(~np.isnan(values)))}"
        )
    return result


def normality_score(values: np.ndarray) -> float:
    """Score in [0, 1]; 1 = indistinguishable from a fitted normal."""
    return normality_test(values).normality_score


def non_normality_score(values: np.ndarray) -> float:
    """1 - :func:`normality_score`; high for strongly non-normal columns."""
    return 1.0 - normality_score(values)
