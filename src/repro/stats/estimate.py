"""Optimizer-style cardinality estimation from single-relation statistics.

This is the classical, *error-prone* machinery the paper contrasts progress
estimation with: selectivities come from per-column histograms under
independence and uniformity assumptions, and join selectivity uses the
``1/max(distinct)`` rule.  Under skewed data these estimates go wrong by
orders of magnitude ([11] in the paper) — deliberately so; several
experiments here exist to show progress estimators surviving exactly those
errors.

The estimator is used by the SQL planner (join ordering, access-path choice)
and by the multi-pipeline dne estimator (pipeline work weights).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Not,
    Or,
    as_column_equality,
    as_column_range,
    conjuncts,
)
from repro.engine.operators.base import (
    AGG_HASH,
    AGG_STREAM,
    DISTINCT,
    FILTER,
    HASH_JOIN,
    INL_JOIN,
    LIMIT,
    MERGE_JOIN,
    NL_JOIN,
    SCAN,
    SEEK,
    TOPN,
    UNION,
    Operator,
)
from repro.engine.plan import Plan
from repro.stats.base import ColumnStatistic
from repro.storage.catalog import Catalog
from repro.storage.schema import split_name

#: fallback selectivities when no statistic answers the question
DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_OTHER_SELECTIVITY = 0.25
DEFAULT_GROUPING_FRACTION = 0.1


class CardinalityEstimator:
    """Estimates selectivities and per-operator output cardinalities."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # -- column statistics lookup ----------------------------------------------

    def _statistic_for(self, column_name: str) -> Optional[ColumnStatistic]:
        """Find a statistic for a (possibly alias-qualified) column name.

        The qualifier is tried as a table name directly; if that fails, every
        table owning a column of that bare name is tried (unambiguous case).
        """
        qualifier, bare = split_name(column_name)
        if qualifier is not None and self.catalog.has_table(qualifier):
            statistic = self.catalog.statistic(qualifier, bare)
            if isinstance(statistic, ColumnStatistic):
                return statistic
        owners = [
            table.name
            for table in self.catalog.tables()
            if table.schema.has_column(bare)
        ]
        if len(owners) == 1:
            statistic = self.catalog.statistic(owners[0], bare)
            if isinstance(statistic, ColumnStatistic):
                return statistic
        return None

    # -- predicate selectivity ---------------------------------------------------

    def selectivity(self, predicate: Expression) -> float:
        """Estimated fraction of rows satisfying ``predicate``.

        Conjuncts multiply (independence); disjuncts combine by
        inclusion-exclusion; everything is clamped to [0, 1].
        """
        parts = conjuncts(predicate)
        if len(parts) > 1:
            product = 1.0
            for part in parts:
                product *= self.selectivity(part)
            return _clamp(product)
        return _clamp(self._single_selectivity(parts[0]))

    def _single_selectivity(self, predicate: Expression) -> float:
        if isinstance(predicate, Or):
            miss = 1.0
            for operand in predicate.operands:
                miss *= 1.0 - self.selectivity(operand)
            return 1.0 - miss
        if isinstance(predicate, Not):
            return 1.0 - self.selectivity(predicate.operand)
        if isinstance(predicate, And):
            return self.selectivity(predicate)
        if isinstance(predicate, IsNull):
            return DEFAULT_OTHER_SELECTIVITY
        if isinstance(predicate, (Like, InList)):
            return self._in_or_like_selectivity(predicate)
        if as_column_equality(predicate) is not None:
            # column = column inside one input: treat as generic equality
            return DEFAULT_EQUALITY_SELECTIVITY
        range_shape = as_column_range(predicate)
        if range_shape is not None:
            return self._range_selectivity(*range_shape)
        if isinstance(predicate, Comparison) and predicate.op == "<>":
            return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
        return DEFAULT_OTHER_SELECTIVITY

    def _in_or_like_selectivity(self, predicate: Expression) -> float:
        if isinstance(predicate, InList):
            if isinstance(predicate.operand, ColumnRef):
                statistic = self._statistic_for(predicate.operand.name)
                if statistic is not None:
                    return _clamp(
                        sum(
                            statistic.selectivity_equality(value)
                            for value in predicate.values
                        )
                    )
            return _clamp(DEFAULT_EQUALITY_SELECTIVITY * len(predicate.values))
        return DEFAULT_OTHER_SELECTIVITY

    def _range_selectivity(
        self,
        column: str,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> float:
        statistic = self._statistic_for(column)
        if statistic is None:
            if low is not None and high is not None and low == high:
                return DEFAULT_EQUALITY_SELECTIVITY
            return DEFAULT_RANGE_SELECTIVITY
        if low is not None and high is not None and low == high:
            return statistic.selectivity_equality(low)
        return statistic.selectivity_range(low, high, low_inclusive, high_inclusive)

    # -- join selectivity -----------------------------------------------------------

    def join_selectivity(self, left_column: str, right_column: str) -> float:
        """``1 / max(V(left), V(right))`` with histogram distinct counts."""
        left_stat = self._statistic_for(left_column)
        right_stat = self._statistic_for(right_column)
        distincts = [
            stat.estimate_distinct()
            for stat in (left_stat, right_stat)
            if stat is not None and stat.estimate_distinct() > 0
        ]
        if not distincts:
            return DEFAULT_EQUALITY_SELECTIVITY
        return 1.0 / max(distincts)

    # -- per-operator plan estimates ---------------------------------------------------

    def estimate_plan(self, plan: Plan) -> Dict[int, float]:
        """Estimated output cardinality for every operator in ``plan``.

        Returns a map from ``operator_id`` to the estimate.  These are the
        "optimizer estimates which do not come with error intervals" (§5.1):
        the progress layer uses them only for pipeline weighting, never for
        guarantees.
        """
        estimates: Dict[int, float] = {}
        self._estimate_node(plan.root, estimates)
        return estimates

    def _estimate_node(self, node: Operator, out: Dict[int, float]) -> float:
        children = [self._estimate_node(child, out) for child in node.children]
        estimate = self._node_estimate(node, children)
        out[node.operator_id] = estimate
        return estimate

    def _node_estimate(self, node: Operator, children: list) -> float:
        kind = node.kind
        if kind == SCAN:
            return float(node.base_cardinality())
        if kind == SEEK:
            # The index can answer exactly; a real system would use the
            # histogram, and so do we when asked for *bounds* (core.bounds).
            return float(node.exact_match_count())
        if kind == FILTER:
            return children[0] * self.selectivity(node.predicate)
        if kind in (HASH_JOIN, MERGE_JOIN):
            left_key, right_key = _join_key_names(node)
            selectivity = (
                self.join_selectivity(left_key, right_key)
                if left_key and right_key
                else DEFAULT_EQUALITY_SELECTIVITY
            )
            return children[0] * children[1] * selectivity
        if kind == INL_JOIN:
            outer = children[0]
            inner_name = "%s.%s" % (node.inner_alias, node.index.column)
            outer_name = (
                node.outer_key.name
                if isinstance(node.outer_key, ColumnRef)
                else inner_name
            )
            selectivity = self.join_selectivity(outer_name, inner_name)
            inner_cardinality = float(len(node.index.table))
            estimate = outer * inner_cardinality * selectivity
            if node.residual is not None:
                estimate *= self.selectivity(node.residual)
            return estimate
        if kind == NL_JOIN:
            estimate = children[0] * children[1]
            if node.predicate is not None:
                estimate *= self.selectivity(node.predicate)
            return estimate
        if kind in (AGG_HASH, AGG_STREAM):
            if not node.group_by:
                return 1.0
            return max(1.0, children[0] * DEFAULT_GROUPING_FRACTION)
        if kind == DISTINCT:
            return max(1.0, children[0] * DEFAULT_GROUPING_FRACTION)
        if kind in (LIMIT, TOPN):
            return min(children[0], float(node.limit))
        if kind == UNION:
            return float(sum(children))
        # Project, Sort and anything else that preserves cardinality.
        return children[0] if children else 0.0


def _join_key_names(node: Operator):
    """Column names of a hash or merge join's keys, when they are plain
    columns."""
    if node.kind == HASH_JOIN:
        left, right = node.build_key, node.probe_key
    else:
        left, right = node.left_key, node.right_key
    left_name = left.name if isinstance(left, ColumnRef) else None
    right_name = right.name if isinstance(right, ColumnRef) else None
    return left_name, right_name


def _clamp(value: float) -> float:
    return max(0.0, min(1.0, value))
