"""General statistical dependence measures.

The paper lists "general statistical dependencies" among its additional
insight classes.  These metrics quantify association beyond linear
correlation:

* mutual information between two discretised/categorical columns;
* normalised mutual information (symmetric uncertainty);
* Cramér's V from the chi-square statistic of a contingency table;
* the correlation ratio η² between a categorical and a numeric column.

Everything runs on integer codes (``-1`` = missing), the representation
:class:`~repro.data.column.CategoricalColumn` already stores: contingency
tables and group sums are ``np.bincount`` calls.  The label-sequence
functions factorize their input once and share the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import EmptyColumnError


def factorize(labels: Sequence[object]) -> tuple[np.ndarray, list[str]]:
    """Integer codes (``-1`` = None) into the sorted distinct ``str`` labels."""
    array = np.empty(len(labels), dtype=object)
    array[:] = list(labels)
    missing = np.equal(array, None)
    levels, inverse = np.unique(array[~missing].astype(str), return_inverse=True)
    codes = np.full(array.size, -1, dtype=np.int64)
    codes[~missing] = inverse
    return codes, levels.tolist()


@dataclass(frozen=True)
class Contingency:
    """Joint counts of two coded columns over their complete pairs.

    Only levels that occur in at least one complete pair get a row or
    column, in label order; ``row_levels``/``column_levels`` name them.
    """

    counts: np.ndarray
    row_levels: list[str]
    column_levels: list[str]


def contingency(
    x_codes: np.ndarray, x_levels: Sequence[str],
    y_codes: np.ndarray, y_levels: Sequence[str],
) -> Contingency:
    """The :class:`Contingency` of two code arrays (missing rows dropped)."""
    x_codes = np.asarray(x_codes, dtype=np.int64)
    y_codes = np.asarray(y_codes, dtype=np.int64)
    if x_codes.shape != y_codes.shape:
        raise ValueError("label sequences must have equal length")
    keep = (x_codes >= 0) & (y_codes >= 0)
    if not keep.any():
        raise EmptyColumnError("no complete label pairs")
    n_x, n_y = len(x_levels), len(y_levels)
    counts = np.bincount(
        x_codes[keep] * n_y + y_codes[keep], minlength=n_x * n_y
    ).reshape(n_x, n_y).astype(np.float64)
    rows = sorted(np.flatnonzero(counts.sum(axis=1)), key=lambda i: x_levels[i])
    columns = sorted(np.flatnonzero(counts.sum(axis=0)), key=lambda j: y_levels[j])
    return Contingency(
        counts=counts[np.ix_(rows, columns)],
        row_levels=[str(x_levels[i]) for i in rows],
        column_levels=[str(y_levels[j]) for j in columns],
    )


def contingency_table(x_labels: Sequence[object], y_labels: Sequence[object]) -> np.ndarray:
    """Joint count table of two label sequences (missing rows dropped)."""
    if len(x_labels) != len(y_labels):
        raise ValueError("label sequences must have equal length")
    return contingency(*factorize(x_labels), *factorize(y_labels)).counts


def chi_square(table: np.ndarray) -> float:
    """Pearson chi-square statistic of a contingency table."""
    table = np.asarray(table, dtype=np.float64)
    total = table.sum()
    if total == 0:
        raise EmptyColumnError("empty contingency table")
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / total
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    return float(terms.sum())


def table_cramers_v(table: np.ndarray) -> float:
    """Cramér's V of a contingency table of counts."""
    n = table.sum()
    r, c = table.shape
    k = min(r - 1, c - 1)
    if k <= 0 or n == 0:
        return 0.0
    return float(math.sqrt(chi_square(table) / (n * k)))


def cramers_v(x_labels: Sequence[object], y_labels: Sequence[object]) -> float:
    """Cramér's V in [0, 1]; 0 = independent, 1 = perfectly associated."""
    return table_cramers_v(contingency_table(x_labels, y_labels))


def table_mutual_information(table: np.ndarray, base: float = 2.0) -> float:
    """Mutual information of a contingency table of counts."""
    joint = table / table.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    present = joint > 0
    ratio = joint[present] / (px * py)[present]
    mi = float(np.sum(joint[present] * np.log(ratio))) / math.log(base)
    return max(mi, 0.0)


def mutual_information(
    x_labels: Sequence[object], y_labels: Sequence[object], base: float = 2.0
) -> float:
    """Mutual information I(X; Y) of two label sequences (in bits by default)."""
    return table_mutual_information(contingency_table(x_labels, y_labels), base)


def symmetric_uncertainty(
    x_labels: Sequence[object], y_labels: Sequence[object]
) -> float:
    """Normalised mutual information 2·I / (H(X) + H(Y)) in [0, 1]."""
    table = contingency_table(x_labels, y_labels)
    n = table.sum()
    px = table.sum(axis=1) / n
    py = table.sum(axis=0) / n
    hx = -float(np.sum(px[px > 0] * np.log2(px[px > 0])))
    hy = -float(np.sum(py[py > 0] * np.log2(py[py > 0])))
    if hx + hy == 0.0:
        return 0.0
    return float(2.0 * table_mutual_information(table) / (hx + hy))


def bin_codes(values: np.ndarray, bins: int = 10) -> np.ndarray:
    """Equal-width bin index of each value (``-1`` for NaN)."""
    values = np.asarray(values, dtype=np.float64)
    missing = np.isnan(values)
    finite = values[~missing]
    if finite.size == 0:
        raise EmptyColumnError("no non-missing values to discretise")
    low, high = float(finite.min()), float(finite.max())
    if low == high:
        codes = np.zeros(values.size, dtype=np.int64)
    else:
        edges = np.linspace(low, high, bins + 1)
        codes = np.clip(np.digitize(values, edges) - 1, 0, bins - 1)
    codes[missing] = -1
    return codes


def discretize(values: np.ndarray, bins: int = 10) -> list[str | None]:
    """Equal-width binning of a numeric array into bin labels.

    Used to apply categorical dependence measures to numeric columns;
    missing values (NaN) map to None.
    """
    return [None if code < 0 else f"bin{code}"
            for code in bin_codes(values, bins).tolist()]


def numeric_mutual_information(x: np.ndarray, y: np.ndarray, bins: int = 10) -> float:
    """Mutual information between two numeric columns via equal-width binning."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = ~(np.isnan(x) | np.isnan(y))
    if int(keep.sum()) < 2:
        raise EmptyColumnError("need at least 2 complete pairs")
    levels = [f"bin{i}" for i in range(bins)]
    table = contingency(bin_codes(x[keep], bins), levels,
                        bin_codes(y[keep], bins), levels).counts
    return table_mutual_information(table)


def correlation_ratios(codes: np.ndarray, n_levels: int, rows: np.ndarray) -> np.ndarray:
    """η² of one coded categorical column against every row of ``rows``.

    ``rows`` holds one numeric column per row, NaN where missing (see
    :meth:`~repro.data.table.DataTable.numeric_rows`).  Group counts and
    sums for all rows come from one ``np.bincount`` over (row, level)
    cells; every other reduction runs along ``axis=1``, so a row's η² does
    not depend on the other rows.  NaN marks rows with fewer than two
    complete pairs.
    """
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.float64)
    keep = (codes >= 0) & ~np.isnan(rows)
    n = np.count_nonzero(keep, axis=1)
    n_rows = rows.shape[0]
    flat = keep.ravel()
    cells = (np.arange(n_rows)[:, None] * n_levels + codes).ravel()[flat]
    size = n_rows * n_levels
    group_n = np.bincount(cells, minlength=size).astype(np.float64)
    group_sum = np.bincount(cells, weights=rows.ravel()[flat], minlength=size)
    group_n = group_n.reshape(n_rows, n_levels)
    group_sum = group_sum.reshape(n_rows, n_levels)
    # The overall mean from the same group sums: a single level's group
    # mean then equals it exactly, so its η² is exactly zero.
    mean = group_sum.sum(axis=1) / np.maximum(n, 1)
    centered = np.where(keep, rows - mean[:, None], 0.0)
    total_ss = (centered * centered).sum(axis=1)
    gap = group_sum / np.maximum(group_n, 1.0) - mean[:, None]
    between_ss = (group_n * gap * gap).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.clip(between_ss / total_ss, 0.0, 1.0)
    eta[total_ss == 0.0] = 0.0
    eta[n < 2] = np.nan
    return eta


def correlation_ratio(labels: Sequence[object], values: Iterable[float]) -> float:
    """Correlation ratio η² between a categorical and a numeric column.

    η² is the fraction of numeric variance explained by the category; it is
    the dependence metric used when exactly one of the attributes is
    categorical.
    """
    values = np.asarray(list(values), dtype=np.float64)
    if len(labels) != values.size:
        raise ValueError("labels and values must have equal length")
    codes, levels = factorize(labels)
    eta = correlation_ratios(codes, len(levels), values[None, :])[0]
    if np.isnan(eta):
        raise EmptyColumnError("need at least 2 complete pairs")
    return float(eta)
