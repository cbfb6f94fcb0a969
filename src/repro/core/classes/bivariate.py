"""Bivariate insight classes.

* :class:`LinearRelationshipInsight` — paper section 2.2, insight 6: the
  strength of a linear relationship between two numeric columns, ranked by
  |Pearson ρ|, visualised with a scatter plot + best-fit line, with the
  Figure 2 correlation heat map as its overview visualization.
* :class:`MonotonicRelationshipInsight` — "nonlinear monotonic
  relationships" from the additional-insights list.
* :class:`DependenceInsight` — "general statistical dependencies" from the
  additional-insights list, covering categorical-categorical (Cramér's V)
  and categorical-numeric (correlation ratio η²) pairs.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.errors import EmptyColumnError
from repro.data.missing import pairwise_values
from repro.data.table import DataTable
from repro.core.insight import (
    BatchScoredInsightClass,
    EvaluationContext,
    Insight,
    InsightClass,
    ScoredCandidate,
    numeric_row_blocks,
    pairs,
)
from repro.stats import correlation as correlation_stats
from repro.stats import dependence as dependence_stats
from repro.stats import monotonic as monotonic_stats
from repro.viz.charts import grouped_scatter_spec, heatmap_spec, scatter_spec
from repro.viz.spec import VisualizationSpec


class LinearRelationshipInsight(InsightClass):
    """Strong linear relationship between two numeric attributes."""

    name = "linear_relationship"
    label = "Correlations"
    description = "Strong linear relationship between two numeric attributes"
    metric_name = "abs_pearson"
    arity = 2
    visualization = "scatter"
    has_overview = True

    def __init__(self, method: str = "pearson"):
        if method not in ("pearson", "spearman"):
            raise ValueError("method must be 'pearson' or 'spearman'")
        self.method = method

    # -- candidates --------------------------------------------------------------
    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        yield from pairs(table.numeric_names())

    def candidate_domain(self) -> str | None:
        return "numeric-pairs"

    def candidate_count(self, table: DataTable) -> int:
        d = len(table.numeric_names())
        return d * (d - 1) // 2

    # -- scoring -----------------------------------------------------------------
    def score(self, attributes: tuple[str, ...], context: EvaluationContext) -> ScoredCandidate | None:
        x_name, y_name = attributes
        try:
            if (
                context.use_sketches
                and self.method == "pearson"
                and context.store.has_column(x_name)
                and context.store.has_column(y_name)
            ):
                rho = context.store.approx_correlation(x_name, y_name)
                source = "sketch"
            else:
                x, y = pairwise_values(
                    context.table.numeric_column(x_name),
                    context.table.numeric_column(y_name),
                )
                rho = (
                    correlation_stats.pearson(x, y)
                    if self.method == "pearson"
                    else correlation_stats.spearman(x, y)
                )
                source = "exact"
        except EmptyColumnError:
            return None
        return ScoredCandidate(
            attributes=attributes,
            score=float(abs(rho)),
            details={
                "correlation": float(rho),
                "method": self.method,
                "direction": "positive" if rho >= 0 else "negative",
                "source": source,
            },
        )

    def score_all(
        self, candidate_tuples: Sequence[tuple[str, ...]], context: EvaluationContext
    ) -> list[ScoredCandidate]:
        """Batched scoring.

        In approximate mode all pairwise correlations come from one sketch
        matrix product (O(d²·k)); in exact mode they come from one dense
        correlation-matrix computation (O(d²·n)).  This is the code path the
        latency benchmarks measure.
        """
        if self.method != "pearson":
            return super().score_all(candidate_tuples, context)
        names = sorted({name for attrs in candidate_tuples for name in attrs})
        try:
            if context.use_sketches and all(
                context.store.has_column(name) for name in names
            ):
                matrix, ordered = context.store.approx_correlation_matrix(names)
                source = "sketch"
            else:
                dense, ordered = context.table.numeric_matrix(names)
                matrix = correlation_stats.correlation_matrix(dense, method=self.method)
                source = "exact"
        except (EmptyColumnError, ValueError):
            return super().score_all(candidate_tuples, context)
        index = {name: i for i, name in enumerate(ordered)}
        results = []
        for attributes in candidate_tuples:
            x_name, y_name = attributes
            if x_name not in index or y_name not in index:
                continue
            rho = float(matrix[index[x_name], index[y_name]])
            results.append(
                ScoredCandidate(
                    attributes=attributes,
                    score=abs(rho),
                    details={
                        "correlation": rho,
                        "method": self.method,
                        "direction": "positive" if rho >= 0 else "negative",
                        "source": source,
                    },
                )
            )
        return results

    # -- presentation --------------------------------------------------------------
    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        x_name, y_name = insight.attributes
        table = context.table
        if context.use_sketches and context.store is not None:
            table = context.store.sample_table()
        x = table.numeric_column(x_name)
        y = table.numeric_column(y_name)
        x_values, y_values = pairwise_values(x, y)
        spec = scatter_spec(x_values, y_values, x_name, y_name,
                            title=f"{self.label}: {y_name} vs {x_name}")
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        spec.metadata["correlation"] = insight.details.get("correlation")
        return spec

    def overview(self, context: EvaluationContext) -> VisualizationSpec | None:
        """The Figure 2 overview: all pairwise correlations as a heat map."""
        names = context.table.numeric_names()
        if len(names) < 2:
            return None
        if context.use_sketches and all(
            context.store.has_column(name) for name in names
        ):
            matrix, ordered = context.store.approx_correlation_matrix(names)
        else:
            dense, ordered = context.table.numeric_matrix(names)
            matrix = correlation_stats.correlation_matrix(dense, method=self.method)
        spec = heatmap_spec(matrix, ordered, value_name="correlation",
                            title="Pairwise attribute correlations")
        spec.metadata["insight_class"] = self.name
        return spec

    def summarize(self, candidate: ScoredCandidate) -> str:
        x_name, y_name = candidate.attributes
        rho = candidate.details.get("correlation", candidate.score)
        direction = candidate.details.get("direction", "strong")
        return (
            f"{x_name} and {y_name} have a strong {direction} linear "
            f"relationship (ρ = {rho:+.2f})"
        )


class MonotonicRelationshipInsight(InsightClass):
    """Nonlinear but monotonic relationship between two numeric attributes."""

    name = "monotonic_relationship"
    label = "Nonlinear Monotonic Relationships"
    description = "Monotonic association that a linear fit underestimates"
    metric_name = "monotonic_strength"
    arity = 2
    visualization = "scatter"

    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        yield from pairs(table.numeric_names())

    def candidate_domain(self) -> str | None:
        return "numeric-pairs"

    def candidate_count(self, table: DataTable) -> int:
        d = len(table.numeric_names())
        return d * (d - 1) // 2

    def _columns(self, attributes: tuple[str, ...], context: EvaluationContext):
        table = context.table
        if context.use_sketches and context.store is not None:
            table = context.store.sample_table()
        return (
            table.numeric_column(attributes[0]),
            table.numeric_column(attributes[1]),
        )

    def score(self, attributes: tuple[str, ...], context: EvaluationContext) -> ScoredCandidate | None:
        try:
            x_column, y_column = self._columns(attributes, context)
            x, y = pairwise_values(x_column, y_column, minimum=5)
        except EmptyColumnError:
            return None
        relation = monotonic_stats.monotonic_relation(x, y)
        strength = monotonic_stats.monotonic_strength(x, y)
        return ScoredCandidate(
            attributes=attributes,
            score=float(strength),
            details={
                "spearman": relation.spearman,
                "pearson": relation.pearson,
                "direction": relation.direction,
                "nonlinearity_gap": relation.nonlinearity_gap,
            },
        )

    def score_all(
        self, candidate_tuples: Sequence[tuple[str, ...]], context: EvaluationContext
    ) -> list[ScoredCandidate]:
        """Batched scoring via one Spearman matrix and one Pearson matrix.

        Rank-transforming every column once and computing two dense
        correlation matrices is O(d²·m) matrix algebra (m = sample size in
        approximate mode), instead of O(d²) separate rank correlations.
        """
        names = sorted({name for attrs in candidate_tuples for name in attrs})
        table = context.table
        if context.use_sketches and context.store is not None:
            table = context.store.sample_table()
        try:
            dense, ordered = table.numeric_matrix(names)
        except Exception:
            return super().score_all(candidate_tuples, context)
        if dense.shape[0] < 5 or np.isnan(dense).any():
            # Pairwise-complete handling differs per pair; fall back.
            return super().score_all(candidate_tuples, context)
        spearman_matrix = correlation_stats.correlation_matrix(dense, method="spearman")
        pearson_matrix = correlation_stats.correlation_matrix(dense, method="pearson")
        index = {name: i for i, name in enumerate(ordered)}
        results = []
        for attributes in candidate_tuples:
            x_name, y_name = attributes
            if x_name not in index or y_name not in index:
                continue
            spearman_value = float(spearman_matrix[index[x_name], index[y_name]])
            pearson_value = float(pearson_matrix[index[x_name], index[y_name]])
            relation = monotonic_stats.MonotonicRelation(
                spearman=spearman_value, pearson=pearson_value
            )
            if abs(spearman_value) < 1e-12:
                strength = 0.0
            else:
                strength = abs(spearman_value) * (
                    relation.nonlinearity_gap / abs(spearman_value)
                )
            results.append(
                ScoredCandidate(
                    attributes=attributes,
                    score=float(strength),
                    details={
                        "spearman": spearman_value,
                        "pearson": pearson_value,
                        "direction": relation.direction,
                        "nonlinearity_gap": relation.nonlinearity_gap,
                    },
                )
            )
        return results

    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        x_name, y_name = insight.attributes
        x_column, y_column = self._columns(insight.attributes, context)
        x, y = pairwise_values(x_column, y_column)
        spec = scatter_spec(x, y, x_name, y_name,
                            title=f"{self.label}: {y_name} vs {x_name}")
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        spec.metadata.update(insight.details)
        return spec

    def summarize(self, candidate: ScoredCandidate) -> str:
        x_name, y_name = candidate.attributes
        spearman = candidate.details.get("spearman", 0.0)
        direction = candidate.details.get("direction", "monotonic")
        return (
            f"{x_name} and {y_name} have a nonlinear {direction} relationship "
            f"(Spearman {spearman:+.2f} vs Pearson "
            f"{candidate.details.get('pearson', 0.0):+.2f})"
        )


class DependenceInsight(BatchScoredInsightClass):
    """General statistical dependence between attributes of mixed kinds."""

    name = "dependence"
    label = "Statistical Dependencies"
    description = "General (not necessarily linear) dependence between attributes"
    metric_name = "dependence_strength"
    arity = 2
    visualization = "heatmap"

    def __init__(self, max_categories: int = 50):
        self.max_categories = int(max_categories)

    def candidates(self, table: DataTable) -> Iterator[tuple[str, ...]]:
        # Identifier-like columns (almost one category per row) trivially
        # "explain" any numeric attribute; exclude them along with very
        # high-cardinality columns.
        identifier_threshold = max(2, table.n_rows // 2)
        categorical = [
            name
            for name in table.categorical_names()
            if table.categorical_column(name).n_categories()
            <= min(self.max_categories, identifier_threshold)
        ]
        numeric = table.numeric_names()
        # categorical-categorical pairs
        yield from pairs(categorical)
        # categorical-numeric pairs (categorical listed first)
        for cat_name in categorical:
            for num_name in numeric:
                yield (cat_name, num_name)

    def _table(self, context: EvaluationContext) -> DataTable:
        if context.use_sketches and context.store is not None:
            return context.store.sample_table()
        return context.table

    def score_all(
        self, candidate_tuples: Sequence[tuple[str, ...]], context: EvaluationContext
    ) -> list[ScoredCandidate]:
        """Batched scoring on integer codes.

        Categorical pairs get Cramér's V from a ``bincount`` contingency
        table each; the categorical-numeric pairs sharing a categorical
        column get their η² together, one ``correlation_ratios`` pass per
        block of numeric columns.  Sketch mode reads the store's row
        sample, exact mode the full table.
        """
        table = self._table(context)
        scores: dict[tuple[str, str], tuple[float, str]] = {}
        numeric_by_category: dict[str, list[str]] = {}
        for first, second in candidate_tuples:
            first_is_cat = table.column(first).kind.is_categorical
            if first_is_cat and table.column(second).kind.is_categorical:
                if (first, second) not in scores:
                    scores[first, second] = (self._cramers_v(table, first, second), "cramers_v")
                continue
            cat_name, num_name = (first, second) if first_is_cat else (second, first)
            numeric_by_category.setdefault(cat_name, []).append(num_name)
        for cat_name, num_names in numeric_by_category.items():
            column = table.categorical_column(cat_name)
            for names, rows in numeric_row_blocks(table, num_names):
                etas = dependence_stats.correlation_ratios(
                    column.codes, column.n_categories(), rows)
                for num_name, eta in zip(names, etas.tolist()):
                    scores[cat_name, num_name] = (eta, "correlation_ratio")
        results = []
        for attributes in candidate_tuples:
            # η² is stored under (categorical, numeric) whichever order came in.
            key = attributes if attributes in scores else attributes[::-1]
            value, measure = scores[key]
            if np.isnan(value):
                continue
            results.append(ScoredCandidate(
                attributes=attributes,
                score=float(value),
                details={"measure": measure},
            ))
        return results

    @staticmethod
    def _contingency(table: DataTable, first: str, second: str) -> dependence_stats.Contingency:
        x = table.categorical_column(first)
        y = table.categorical_column(second)
        return dependence_stats.contingency(x.codes, x.categories, y.codes, y.categories)

    def _cramers_v(self, table: DataTable, first: str, second: str) -> float:
        try:
            return dependence_stats.table_cramers_v(self._contingency(table, first, second).counts)
        except EmptyColumnError:
            return float("nan")

    def visualize(self, insight: Insight, context: EvaluationContext) -> VisualizationSpec:
        first, second = insight.attributes
        table = self._table(context)
        first_kind = table.column(first).kind
        second_kind = table.column(second).kind
        if first_kind.is_categorical and second_kind.is_categorical:
            contingency = self._contingency(table, first, second)
            spec = heatmap_not_square(contingency.counts, contingency.row_levels,
                                      contingency.column_levels,
                                      title=f"{self.label}: {first} x {second}")
        else:
            cat_name, num_name = (first, second) if first_kind.is_categorical else (second, first)
            labels = table.categorical_column(cat_name).labels()
            values = table.numeric_column(num_name).values
            index = np.arange(values.size, dtype=np.float64)
            spec = grouped_scatter_spec(
                index, values, labels, "row", num_name, cat_name,
                title=f"{self.label}: {num_name} by {cat_name}",
            )
        spec.metadata["insight_class"] = self.name
        spec.metadata["score"] = insight.score
        spec.metadata.update(insight.details)
        return spec

    def summarize(self, candidate: ScoredCandidate) -> str:
        first, second = candidate.attributes
        measure = candidate.details.get("measure", "dependence")
        return (
            f"{first} and {second} are statistically dependent "
            f"({measure} = {candidate.score:.2f})"
        )


def heatmap_not_square(
    counts: np.ndarray, row_labels: Sequence[str], column_labels: Sequence[str],
    title: str,
) -> VisualizationSpec:
    """Rectangular count heat map for a contingency table."""
    from repro.viz.spec import VisualizationSpec, encoding_channel

    data = []
    max_count = float(counts.max()) if counts.size else 1.0
    for i, row_label in enumerate(row_labels):
        for j, column_label in enumerate(column_labels):
            count = float(counts[i, j])
            data.append(
                {
                    "row": row_label,
                    "column": column_label,
                    "count": count,
                    "correlation": count / max_count if max_count else 0.0,
                    "magnitude": count / max_count if max_count else 0.0,
                }
            )
    return VisualizationSpec(
        mark="rect",
        title=title,
        data=data,
        encoding={
            "x": encoding_channel("column", "nominal"),
            "y": encoding_channel("row", "nominal"),
            "color": encoding_channel("count", "quantitative"),
            "size": encoding_channel("magnitude", "quantitative"),
        },
        metadata={"kind": "contingency"},
    )
