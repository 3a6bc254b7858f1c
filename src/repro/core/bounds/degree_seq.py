"""Degree-sequence join bounds — the ``degree_seq`` overlay provider.

The paper's general-join rule upper-bounds ``R ⋈ S`` by ``|R|·|S|`` —
catastrophically loose under skew, exactly where pmax and safe are
weakest.  Deeds & Balazinska (arXiv:2201.04166) bound the same join by
pairing the two key columns' descending degree sequences, and Abo Khamis &
Olteanu (arXiv:2306.14075) generalize to Lp norms of those sequences; both
are provably sound from cheap single-relation statistics, which is all the
paper's framework permits (§2.3).

This provider grounds each join input in a base table by walking through
filters (a σ can only *remove* rows, so the base column's degree sequence
dominates the filtered input's), reads the catalog's degree statistics for
the join key columns, and emits a static per-node upper bound:

* both sides grounded → ``min(degree-sequence pairing, ‖·‖₂·‖·‖₂)``;
* one side grounded → Hölder's one-sided form,
  ``|other side's base table| · max_degree(grounded key)``;
* probe-preserving (outer) hash joins additionally emit one row per probe
  row, so the probe side's base cardinality is added on top.

Degenerate inputs — no catalog, a side that does not ground to a base
table, a missing degree statistic, or a statistic whose recorded row count
no longer matches the live table (stale) — yield "no opinion" (None), not
``(0, inf)`` noise; staleness additionally warns once per column.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.bounds.providers import BoundProvider
from repro.core.observe import warn_once
from repro.engine.expressions import ColumnRef, as_column_equality
from repro.engine.operators.base import (
    FILTER,
    HASH_JOIN,
    INL_JOIN,
    MERGE_JOIN,
    NL_JOIN,
    SEEK,
    SORT,
    Operator,
)
from repro.engine.operators.scan import TableScan
from repro.stats.degree import (
    DegreeStatistic,
    degree_sequence_join_bound,
    lp_join_bound,
)
from repro.storage.catalog import Catalog

#: a join side grounded in a base table: (table, key degree stat or None)
_Side = Tuple[object, Optional[DegreeStatistic]]


def _ground_side(
    node: Operator, key: Optional[str], catalog: Catalog
) -> Optional[_Side]:
    """Ground one join input in a base table and fetch its key's degrees.

    Walks through filters (row-removing, degree-dominated) and sorts
    (row-preserving) to a table scan or index seek.  Returns ``(table, stat)`` — ``stat`` is None when the
    key column is unknown for this side, the statistic is missing, or it
    is stale — or None when the side does not reach a base table at all.
    """
    walk = node
    # σ removes rows (degree-dominated); sort reorders them (degree
    # multiset unchanged) — both are transparent to degree bounds.
    while walk.kind in (FILTER, SORT):
        walk = walk.child
    if isinstance(walk, TableScan):  # a row source has no table
        table = walk.table
    elif walk.kind == SEEK:
        table = walk.index.table
    else:
        return None
    if key is None or not walk.schema.has_column(key):
        return table, None
    bare = key.split(".")[-1]
    statistic = catalog.degree_statistic(table.name, bare)
    if not isinstance(statistic, DegreeStatistic):
        return table, None
    if statistic.row_count != len(table):
        warn_once(
            "bounds-degree_seq-stale:%s.%s" % (table.name, bare),
            "degree statistic on %s.%s was built over %d rows but the "
            "table now has %d; ignoring it (re-run the statistics "
            "manager to refresh)"
            % (table.name, bare, statistic.row_count, len(table)),
        )
        return table, None
    return table, statistic


def _column_name(expression: object) -> Optional[str]:
    if isinstance(expression, ColumnRef):
        return expression.name
    return None


class DegreeSequenceProvider(BoundProvider):
    """Static join-output caps from per-column degree sequences."""

    name = "degree_seq"
    maintenance = "static"

    def node_bounds(
        self, node: Operator, catalog: Optional[Catalog]
    ) -> Optional[Tuple[Optional[float], Optional[float]]]:
        if catalog is None:
            return None
        kind = node.kind
        if kind == HASH_JOIN:
            build = _ground_side(
                node.build_child, _column_name(node.build_key), catalog
            )
            probe = _ground_side(
                node.probe_child, _column_name(node.probe_key), catalog
            )
            upper = self._pair_bound(build, probe)
            if upper is None:
                return None
            if node.preserve_probe:
                # One extra NULL-padded row per unmatched probe row, at most.
                if probe is None:
                    return None
                upper += float(len(probe[0]))
            return None, upper
        if kind == MERGE_JOIN:
            upper = self._pair_bound(
                _ground_side(node.left, _column_name(node.left_key), catalog),
                _ground_side(node.right, _column_name(node.right_key), catalog),
            )
            return None if upper is None else (None, upper)
        if kind == INL_JOIN:
            index = node.index
            inner_stat = catalog.degree_statistic(
                index.table.name, index.column
            )
            if not isinstance(inner_stat, DegreeStatistic):
                inner_stat = None
            elif inner_stat.row_count != len(index.table):
                warn_once(
                    "bounds-degree_seq-stale:%s.%s"
                    % (index.table.name, index.column),
                    "degree statistic on %s.%s was built over %d rows but "
                    "the table now has %d; ignoring it (re-run the "
                    "statistics manager to refresh)"
                    % (
                        index.table.name,
                        index.column,
                        inner_stat.row_count,
                        len(index.table),
                    ),
                )
                inner_stat = None
            upper = self._pair_bound(
                _ground_side(node.child, _column_name(node.outer_key), catalog),
                (index.table, inner_stat),
            )
            return None if upper is None else (None, upper)
        if kind == NL_JOIN:
            if node.predicate is None:
                return None
            equality = as_column_equality(node.predicate)
            if equality is None:
                return None
            left_name, right_name = equality
            # The predicate binds against the joined schema; sort the two
            # columns onto their sides (each side must own exactly one).
            outer, inner = node.left, node.right
            if outer.schema.has_column(left_name) and inner.schema.has_column(
                right_name
            ):
                outer_key, inner_key = left_name, right_name
            elif outer.schema.has_column(right_name) and inner.schema.has_column(
                left_name
            ):
                outer_key, inner_key = right_name, left_name
            else:
                return None
            upper = self._pair_bound(
                _ground_side(outer, outer_key, catalog),
                _ground_side(inner, inner_key, catalog),
            )
            return None if upper is None else (None, upper)
        return None

    @staticmethod
    def _pair_bound(
        a: Optional[_Side], b: Optional[_Side]
    ) -> Optional[float]:
        """Join-output bound from two grounded sides (None = no opinion)."""
        if a is None or b is None:
            return None
        table_a, stat_a = a
        table_b, stat_b = b
        if stat_a is not None and stat_b is not None:
            # Full sequences on both sides: the descending pairing, with the
            # Lp-norm product as the (never tighter, always sound) general
            # form it specializes.
            return min(
                degree_sequence_join_bound(stat_a, stat_b),
                lp_join_bound(stat_a, stat_b),
            )
        if stat_a is not None:
            return float(len(table_b)) * float(stat_a.max_degree)
        if stat_b is not None:
            return float(len(table_a)) * float(stat_b.max_degree)
        return None
