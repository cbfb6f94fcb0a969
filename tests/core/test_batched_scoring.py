"""Batched ``score_all`` against the per-column oracle it replaced.

The oracle functions below are the per-candidate scoring code the batched
classes used to run: label-based dependence statistics with per-row
loops, scipy's ``kstest`` plus the moment functions for normality, and
the one-column sketch outlier metric.  The batched classes must keep
their rankings identical and every score within ``TOLERANCE`` of them,
on every bundled dataset and on a mixed table with injected NaNs, a
constant column, a single-level and a zero-level categorical.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats
from scipy.stats import rankdata

from repro.core.classes import DependenceInsight, NormalityInsight, OutlierInsight
from repro.core.insight import MODE_APPROXIMATE, MODE_EXACT, EvaluationContext
from repro.data import DataTable
from repro.data.column import CategoricalColumn, NumericColumn
from repro.data.datasets import load_imdb, load_oecd, load_parkinson, make_mixed_table
from repro.data.schema import ColumnKind, Field
from repro.errors import EmptyColumnError
from repro.sketch.store import SketchStore
from repro.stats import moments as moment_stats
from repro.stats import outliers as outlier_stats
from repro.stats.correlation import correlation_matrix

TOLERANCE = 1e-9
#: Scores this close are mathematical ties whose order both paths take
#: from rounding noise (imdb's ``Profit`` and ``ProfitMillions`` are one
#: column scaled by 1e6, so their η² with any category tie exactly).
TIE = 1e-12


# ---------------------------------------------------------------------------
# The per-column oracle
# ---------------------------------------------------------------------------
def oracle_ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks by a scan over tied runs of the sorted values."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def oracle_contingency(x_labels, y_labels) -> np.ndarray:
    pairs = [(str(a), str(b)) for a, b in zip(x_labels, y_labels)
             if a is not None and b is not None]
    if not pairs:
        raise EmptyColumnError("no complete label pairs")
    x_index = {label: i for i, label in enumerate(sorted({a for a, _ in pairs}))}
    y_index = {label: j for j, label in enumerate(sorted({b for _, b in pairs}))}
    table = np.zeros((len(x_index), len(y_index)))
    for a, b in pairs:
        table[x_index[a], y_index[b]] += 1.0
    return table


def oracle_cramers_v(x_labels, y_labels) -> float:
    table = oracle_contingency(x_labels, y_labels)
    n = table.sum()
    k = min(table.shape[0] - 1, table.shape[1] - 1)
    if k <= 0 or n == 0:
        return 0.0
    expected = table.sum(axis=1, keepdims=True) @ table.sum(axis=0, keepdims=True) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0).sum()
    return float(math.sqrt(chi2 / (n * k)))


def oracle_correlation_ratio(labels, values) -> float:
    keep = [i for i in range(values.size)
            if labels[i] is not None and not math.isnan(values[i])]
    if len(keep) < 2:
        raise EmptyColumnError("need at least 2 complete pairs")
    x = values[keep]
    groups: dict[str, list[float]] = {}
    for i in keep:
        groups.setdefault(str(labels[i]), []).append(float(values[i]))
    overall = float(np.mean(x))
    total_ss = float(np.sum((x - overall) ** 2))
    if total_ss == 0.0:
        return 0.0
    between = sum(len(g) * (float(np.mean(g)) - overall) ** 2 for g in groups.values())
    return float(min(max(between / total_ss, 0.0), 1.0))


def _scored_table(context: EvaluationContext) -> DataTable:
    if context.use_sketches:
        return context.store.sample_table()
    return context.table


def oracle_dependence(attributes, context):
    first, second = attributes
    table = _scored_table(context)
    try:
        if (table.column(first).kind.is_categorical
                and table.column(second).kind.is_categorical):
            return oracle_cramers_v(table.categorical_column(first).labels(),
                                    table.categorical_column(second).labels())
        if not table.column(first).kind.is_categorical:
            first, second = second, first
        return oracle_correlation_ratio(table.categorical_column(first).labels(),
                                        np.asarray(table.numeric_column(second).values))
    except EmptyColumnError:
        return None


def oracle_normality(attributes, context):
    x = _scored_table(context).numeric_column(attributes[0]).valid_values()
    if x.size < 8:
        return None
    mu, sigma = float(np.mean(x)), float(np.std(x))
    if sigma == 0.0:
        skew, excess, ks = 0.0, -3.0, 1.0
    else:
        ks = float(scipy_stats.kstest(x, "norm", args=(mu, sigma)).statistic)
        skew = moment_stats.skewness(x)
        excess = moment_stats.kurtosis(x) - 3.0
    shape = 1.0 - 0.5 * (min(abs(skew) / 2.0, 1.0) + min(abs(excess) / 6.0, 1.0))
    normality = max(0.0, min(1.0, 0.5 * max(0.0, 1.0 - 2.0 * ks) + 0.5 * shape))
    return 1.0 - normality


def oracle_outliers(attributes, context):
    name = attributes[0]
    if not (context.use_sketches and context.store.has_column(name)):
        values = context.table.numeric_column(name).valid_values()
        if values.size < 4:
            return None
        return outlier_stats.outlier_strength(values, "iqr")[0]
    bundle = context.store.column_sketches(name)
    try:
        q1, q3 = bundle.quantiles.quantile(0.25), bundle.quantiles.quantile(0.75)
    except EmptyColumnError:
        return None
    std = bundle.moments.std()
    if std == 0.0 or np.isnan(std):
        return 0.0
    low, high = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    sample = context.store.sample_table().numeric_column(name).valid_values()
    outliers = sample[(sample < low) | (sample > high)]
    if outliers.size == 0:
        return 0.0
    return float(np.mean(np.abs(outliers - bundle.moments.mean()) / std))


ORACLES = [
    (DependenceInsight, oracle_dependence),
    (NormalityInsight, oracle_normality),
    (OutlierInsight, oracle_outliers),
]


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------
def awkward_mixed_table() -> DataTable:
    """Mixed table with NaNs, a constant column, a single-level category and
    an all-missing (zero-level) category."""
    base = make_mixed_table(n_rows=1500, n_numeric=8, n_categorical=3,
                            n_categories=6, seed=17)
    rng = np.random.default_rng(17)
    columns = []
    for column in base.columns():
        if isinstance(column, NumericColumn):
            values = np.array(column.values)
            values[rng.random(values.size) < 0.1] = np.nan
            column = NumericColumn(column.field, values)
        elif column.name == "cat_01":
            codes = np.array(column.codes)
            codes[rng.random(codes.size) < 0.1] = CategoricalColumn.MISSING_CODE
            column = CategoricalColumn(column.field, codes, column.categories)
        columns.append(column)
    n = base.n_rows
    columns.append(NumericColumn(Field("constant", ColumnKind.NUMERIC), np.full(n, 4.25)))
    sparse = np.full(n, np.nan)
    sparse[:5] = [1.0, 2.0, 3.0, 4.0, 5.0]
    columns.append(NumericColumn(Field("sparse", ColumnKind.NUMERIC), sparse))
    single = np.where(rng.random(n) < 0.2, CategoricalColumn.MISSING_CODE, 0)
    columns.append(CategoricalColumn(Field("single", ColumnKind.CATEGORICAL),
                                     single, ["only"]))
    empty = np.full(n, CategoricalColumn.MISSING_CODE)
    columns.append(CategoricalColumn(Field("empty", ColumnKind.CATEGORICAL), empty, []))
    return DataTable(columns, name="awkward")


DATASETS = {
    "oecd": load_oecd,
    "imdb": lambda: load_imdb(n_rows=1200),
    "parkinson": lambda: load_parkinson(n_rows=600),
    "awkward": awkward_mixed_table,
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request):
    table = DATASETS[request.param]()
    return table, SketchStore(table)


def _context(dataset, mode: str) -> EvaluationContext:
    table, store = dataset
    return EvaluationContext(table=table, store=store, mode=mode)


def _ranking(scored: list[tuple[tuple[str, ...], float]]) -> list[tuple[str, ...]]:
    return [attributes for attributes, _ in
            sorted(scored, key=lambda item: (-item[1], item[0]))]


def assert_same_ranking(batched, expected) -> None:
    """Identical rankings, up to the order within a tie group."""
    oracle = dict(expected)
    for got, want in zip(_ranking(batched), _ranking(expected)):
        assert got == want or abs(oracle[got] - oracle[want]) <= TIE, (got, want)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", [MODE_APPROXIMATE, MODE_EXACT])
@pytest.mark.parametrize("insight_type,oracle", ORACLES,
                         ids=[cls.name for cls, _ in ORACLES])
def test_batched_scores_match_the_per_column_oracle(dataset, mode, insight_type, oracle):
    context = _context(dataset, mode)
    insight = insight_type()
    candidates = list(insight.candidates(context.table))
    batched = [(c.attributes, c.score) for c in insight.score_all(candidates, context)]
    expected = [(attributes, score) for attributes in candidates
                if (score := oracle(attributes, context)) is not None]
    assert [a for a, _ in batched] == [a for a, _ in expected]
    for (attributes, got), (_, want) in zip(batched, expected):
        assert abs(got - want) <= TOLERANCE, attributes
    assert_same_ranking(batched, expected)


@pytest.mark.parametrize("insight_type", [cls for cls, _ in ORACLES],
                         ids=[cls.name for cls, _ in ORACLES])
def test_score_is_a_batch_of_one(dataset, insight_type):
    context = _context(dataset, MODE_APPROXIMATE)
    insight = insight_type()
    for attributes in list(insight.candidates(context.table))[:12]:
        single = insight.score(attributes, context)
        batch = insight.score_all([attributes], context)
        assert (single is None and batch == []) or (
            batch[0].score == single.score and batch[0].details == single.details)


def _fingerprint(scored) -> list[tuple]:
    return [(c.attributes, c.score.hex(), repr(sorted(c.details.items()))) for c in scored]


AWKWARD = awkward_mixed_table()
AWKWARD_STORE = SketchStore(AWKWARD)


@given(data=st.data(),
       insight_type=st.sampled_from([cls for cls, _ in ORACLES]),
       mode=st.sampled_from([MODE_APPROXIMATE, MODE_EXACT]))
@settings(max_examples=40, deadline=None)
def test_score_all_is_batch_independent(data, insight_type, mode):
    """``score_all(a + b) == score_all(a) + score_all(b)``, bit for bit."""
    insight = insight_type()
    context = EvaluationContext(table=AWKWARD, store=AWKWARD_STORE, mode=mode)
    pool = list(insight.candidates(AWKWARD))
    a = data.draw(st.lists(st.sampled_from(pool), max_size=12), label="a")
    b = data.draw(st.lists(st.sampled_from(pool), max_size=12), label="b")
    whole = insight.score_all(a + b, context)
    parts = insight.score_all(a, context) + insight.score_all(b, context)
    assert _fingerprint(whole) == _fingerprint(parts)


class TestRankdataMatchesTheRankLoop:
    @given(values=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=400))
    @settings(max_examples=80, deadline=None)
    def test_heavily_tied_integers(self, values):
        array = np.asarray(values, dtype=np.float64)
        assert np.array_equal(rankdata(array, method="average"), oracle_ranks(array))

    def test_tied_floats_and_dense_spearman_matrix(self):
        rng = np.random.default_rng(9)
        matrix = np.round(rng.standard_normal((3000, 6)), 1)
        matrix[:, 5] = 7.0
        ranked = np.column_stack([oracle_ranks(matrix[:, j]) for j in range(6)])
        assert np.array_equal(rankdata(matrix, method="average", axis=0), ranked)
        assert np.array_equal(correlation_matrix(matrix, method="spearman"),
                              correlation_matrix(ranked, method="pearson"))


def test_dependence_heatmap_labels_match_its_counts():
    """A level seen only with a missing partner must not shift the labels."""
    table = DataTable.from_columns({"x": ["a", "b", "c", "a"],
                                    "y": ["u", None, "v", "v"]})
    context = EvaluationContext(table=table, mode=MODE_EXACT)
    insight = DependenceInsight()
    scored = insight.score(("x", "y"), context)
    spec = insight.visualize(insight.to_insight(scored), context)
    cells = {(cell["row"], cell["column"]): cell["count"] for cell in spec.data}
    assert cells == {("a", "u"): 1.0, ("a", "v"): 1.0,
                     ("c", "u"): 0.0, ("c", "v"): 1.0}
