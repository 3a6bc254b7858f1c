"""The paper's §5.1 cardinality-bound rules — the ``paper2005`` provider.

This module is the rule set both trackers execute, written out twice but
value-identical by construction:

* :func:`_derive` spells every operator rule out once for any execution
  context.  The reference tracker interprets it on every visit, and the
  incremental tracker calls it for the few nodes that can run under a
  non-standard context (below a LIMIT or inside a ⋈NL inner);
* :func:`_compile_derive_std` specializes one rule per node at
  construction with the standard execution context ``(1.0, 1.0, True,
  True)`` folded in, for the nodes :func:`standard_flags` marks — on the
  benchmark's plans, all but one of 236.

Rules implemented (refined on every inspection):

* scanned leaves contribute their exact catalog cardinality;
* index seeks use histogram bucket bounds when a statistic exists (footnote
  2 of the paper), otherwise the index's exact range count;
* σ's lower bound is the rows returned so far; its upper bound is what its
  child can still deliver — and when the filter is a single range predicate
  directly over a base-table scan, the table's own histogram tightens both
  ends (the buckets were built over exactly that data, so fully-covered
  buckets are guaranteed matches: the footnote-2 refinement);
* π / sort / merge-pass-through keep their child's bounds; a finished sort
  pins the cardinality of the pipeline it drives;
* γ lower-bounds by groups seen so far (scalar aggregates are exactly 1);
* linear joins (declared, e.g. FK joins) upper-bound by the larger input;
  general joins by the product;
* the inner subtree of a ⋈NL is multiplied by the outer's output bounds
  (each outer row rescans it), and per-pass runtime refinements are
  disabled there (counters are cumulative across rescans);
* below a LIMIT, "will be fully scanned" no longer holds, so descendants
  fall back to produced-so-far lower bounds — the effect stops at blocking
  operators, which always drain their input;
* a finished operator's bounds collapse to its exact count.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Tuple

from repro.engine.operators.aggregate import HashAggregate, StreamAggregate
from repro.engine.operators.base import Operator
from repro.engine.operators.filter import Filter
from repro.engine.operators.hash_join import HashJoin
from repro.engine.operators.index_nested_loops import IndexNestedLoopsJoin
from repro.engine.operators.index_seek import IndexSeek
from repro.engine.operators.merge_join import MergeJoin
from repro.engine.operators.misc import Distinct, Limit, UnionAll
from repro.engine.operators.nested_loops import NestedLoopsJoin
from repro.engine.operators.project import Project
from repro.engine.operators.scan import RowSource, TableScan
from repro.engine.operators.sort import Sort
from repro.engine.operators.topn import TopN
from repro.stats.histogram import Histogram
from repro.storage.catalog import Catalog

# -- operator dispatch tags --------------------------------------------------------

_SCAN = 0
_SEEK = 1
_FILTER = 2
_PROJECT = 3
_SORT = 4
_TOPN = 5
_DISTINCT = 6
_AGG_HASH = 7
_AGG_STREAM = 8
_HASH_JOIN = 9
_MERGE_JOIN = 10
_INL_JOIN = 11
_NL_JOIN = 12
_LIMIT = 13
_UNION = 14
_OTHER = 15


def _classify(node: Operator) -> int:
    """Map an operator to its bounds-rule tag (mirrors the rule order)."""
    return _classify_type(type(node))


@functools.lru_cache(maxsize=None)
def _classify_type(cls: type) -> int:
    # The tag depends on the class alone, and the isinstance chain over the
    # operator ABCs costs ~2.5 µs a node: classify every class once.
    if issubclass(cls, (TableScan, RowSource)):
        return _SCAN
    if issubclass(cls, IndexSeek):
        return _SEEK
    if issubclass(cls, Filter):
        return _FILTER
    if issubclass(cls, Sort):
        return _SORT
    if issubclass(cls, Project):
        return _PROJECT
    if issubclass(cls, TopN):
        return _TOPN
    if issubclass(cls, Distinct):
        return _DISTINCT
    if issubclass(cls, HashAggregate):
        return _AGG_HASH
    if issubclass(cls, StreamAggregate):
        return _AGG_STREAM
    if issubclass(cls, HashJoin):
        return _HASH_JOIN
    if issubclass(cls, MergeJoin):
        return _MERGE_JOIN
    if issubclass(cls, IndexNestedLoopsJoin):
        return _INL_JOIN
    if issubclass(cls, NestedLoopsJoin):
        return _NL_JOIN
    if issubclass(cls, Limit):
        return _LIMIT
    if issubclass(cls, UnionAll):
        return _UNION
    return _OTHER


def _static_payload(node: Operator, kind: int, catalog: Optional[Catalog]):
    """Resolve everything about ``node``'s bounds that cannot change at
    runtime: base cardinalities, histogram bucket sums, inner-table sizes.

    The incremental tracker calls this once per node at construction; the
    reference tracker, the oracle, re-resolves it on every visit.
    """
    if kind == _SCAN:
        return float(node.base_cardinality())
    if kind == _SEEK:
        statistic = None
        if catalog is not None:
            statistic = catalog.statistic(node.index.table.name, node.index.column)
        if isinstance(statistic, Histogram):
            return statistic.range_bounds(node.low, node.high)
        exact = node.exact_match_count()
        return exact, exact
    if kind == _FILTER:
        return _filter_histogram_bounds(node, catalog)
    if kind == _INL_JOIN:
        return float(len(node.index.table))
    return None


def _filter_histogram_bounds(
    node: Filter, catalog: Optional[Catalog]
) -> Optional[Tuple[int, int]]:
    """Guaranteed output bounds for a range filter over a base scan.

    Applies only when the filter's predicate is a single range-shaped
    comparison on a column of the table its child scans: the catalog
    histogram was built over exactly those rows, so bucket arithmetic
    yields *guaranteed* bounds on the matching row count (footnote 2).
    """
    from repro.engine.expressions import as_column_range

    if catalog is None or not isinstance(node.child, TableScan):
        return None
    shape = as_column_range(node.predicate)
    if shape is None:
        return None
    column, low, high, low_inclusive, high_inclusive = shape
    if not (low_inclusive and high_inclusive):
        # Bucket bounds are inclusive; exclusive ends would need value
        # adjustment per type — skip rather than risk unsoundness.
        return None
    table_name = node.child.table.name
    bare = column.split(".")[-1]
    if not node.child.schema.has_column(column):
        return None
    statistic = catalog.statistic(table_name, bare)
    if not isinstance(statistic, Histogram):
        return None
    return statistic.range_bounds(low, high)


def _join_output_bounds(
    node: Operator, produced: int, left_upper: float, right_upper: float
) -> Tuple[float, float]:
    if node.is_linear:
        upper = max(left_upper, right_upper)
    else:
        upper = left_upper * right_upper
    return float(produced), max(upper, float(produced))


#: ``visit(child, exec_lower, exec_upper, single_exec, full_scan)``
_Visit = Callable[[Operator, float, float, bool, bool], Tuple[float, float]]


def _derive(
    node: Operator,
    kind: int,
    static,
    produced: int,
    single_exec: bool,
    full_scan: bool,
    exec_lower: float,
    exec_upper: float,
    visit: _Visit,
) -> Tuple[float, float]:
    """Per-pass output bounds for one (unfinished) node.

    The reference tracker runs it for every node and the incremental
    tracker for every node :func:`standard_flags` does not mark, so on
    those nodes the two are bit-identical by construction.  ``visit``
    recurses into a child with explicit execution context; ``static`` is
    the payload of :func:`_static_payload` for this node.
    """
    if kind == _SCAN:
        n = static
        if full_scan:
            return n, n
        return float(produced), n

    if kind == _SEEK:
        lower, upper = static
        if not full_scan:
            lower = 0
        return max(float(lower), float(produced)), max(float(upper), float(produced))

    if kind == _FILTER:
        child_lower, child_upper = visit(
            node.child, exec_lower, exec_upper, single_exec, full_scan
        )
        consumed = node.child.rows_produced if single_exec else 0
        remaining = max(0.0, child_upper - consumed)
        # +1: a row the child just produced may be in flight inside this
        # filter (observers fire inside the child's get_next, before the
        # filter has decided the row's fate).
        in_flight = 1.0 if single_exec and consumed > produced else 0.0
        lower = float(produced)
        upper = float(produced) + remaining + in_flight
        if static is not None and single_exec and full_scan:
            hist_lower, hist_upper = static
            lower = max(lower, float(hist_lower))
            upper = min(upper, max(float(hist_upper), lower))
        return lower, upper

    if kind == _SORT or kind == _PROJECT:
        if kind == _SORT:
            # A blocking consumer drains its input no matter what happens
            # above it, so the child keeps the full-scan guarantee a LIMIT
            # higher up would otherwise cancel — and, because blocking state
            # is spooled across NL-join rescans, the drained subtree executes
            # exactly once regardless of the rescan count.
            child_lower, child_upper = visit(node.child, 1.0, 1.0, True, True)
            # Spooled once even under rescans: the materialized count is
            # this node's exact per-pass output — but a LIMIT above may
            # still cut the emission short, so it is only a lower bound
            # when the full-scan guarantee is gone.
            materialized = node.materialized_count()
            if materialized is not None:
                if full_scan:
                    return float(materialized), float(materialized)
                return float(produced), float(materialized)
        else:
            child_lower, child_upper = visit(
                node.child, exec_lower, exec_upper, single_exec, full_scan
            )
        if not full_scan:
            return float(produced), child_upper
        return max(child_lower, float(produced)), child_upper

    if kind == _TOPN:
        child_lower, child_upper = visit(node.child, 1.0, 1.0, True, True)
        materialized = node.materialized_count()
        if materialized is not None:
            if full_scan:
                return float(materialized), float(materialized)
            return float(produced), float(materialized)
        upper = min(float(node.limit), child_upper)
        lower = float(produced)
        if full_scan:
            lower = max(lower, min(float(node.limit), child_lower))
        return lower, max(upper, lower)

    if kind == _DISTINCT:
        _, child_upper = visit(
            node.child, exec_lower, exec_upper, single_exec, full_scan
        )
        return float(produced), max(child_upper, float(produced))

    if kind == _AGG_HASH or kind == _AGG_STREAM:
        if kind == _AGG_HASH:
            _, child_upper = visit(node.child, 1.0, 1.0, True, True)
        else:
            _, child_upper = visit(
                node.child, exec_lower, exec_upper, single_exec, full_scan
            )
        if not node.group_by:
            return (1.0 if full_scan else float(produced)), 1.0
        groups = 0.0
        if kind == _AGG_HASH:
            # Also spooled once: group counts are per-pass exact.
            if node.input_consumed:
                exact = float(node.groups_seen())
                if full_scan:
                    return exact, exact
                return float(produced), exact
            groups = float(node.groups_seen())
        lower = max(groups, float(produced)) if full_scan else float(produced)
        return lower, max(child_upper, lower, groups)

    if kind == _HASH_JOIN:
        build_lower, build_upper = visit(node.build_child, 1.0, 1.0, True, True)
        probe_lower, probe_upper = visit(
            node.probe_child, exec_lower, exec_upper, single_exec, full_scan
        )
        lower, upper = _join_output_bounds(node, produced, build_upper, probe_upper)
        if node.preserve_probe:
            # Probe-side outer join: every probe row emits at least one
            # output row (a match or a NULL-padded copy).
            if full_scan:
                lower = max(lower, probe_lower)
            upper = upper + probe_upper
        return lower, upper

    if kind == _MERGE_JOIN:
        left_lower, left_upper = visit(
            node.left, exec_lower, exec_upper, single_exec, full_scan
        )
        right_lower, right_upper = visit(
            node.right, exec_lower, exec_upper, single_exec, full_scan
        )
        return _join_output_bounds(node, produced, left_upper, right_upper)

    if kind == _INL_JOIN:
        outer_lower, outer_upper = visit(
            node.child, exec_lower, exec_upper, single_exec, full_scan
        )
        inner_size = static
        if node.is_linear:
            upper = max(outer_upper, inner_size)
        else:
            upper = outer_upper * inner_size
        return float(produced), max(upper, float(produced))

    if kind == _NL_JOIN:
        outer_lower, outer_upper = visit(
            node.left, exec_lower, exec_upper, single_exec, full_scan
        )
        # The inner subtree runs once per outer row; its counters are
        # cumulative across rescans, so per-pass refinement is off.  If a
        # LIMIT above can cut the join mid-stream, the latest rescan may
        # be incomplete, so only outer_lower - 1 passes are guaranteed.
        guaranteed_passes = outer_lower if full_scan else max(0.0, outer_lower - 1)
        inner_lower, inner_upper = visit(
            node.right,
            exec_lower * guaranteed_passes,
            exec_upper * outer_upper,
            False,
            True,
        )
        return _join_output_bounds(node, produced, outer_upper, inner_upper)

    if kind == _LIMIT:
        # Descendants may be cut off mid-stream: drop their full-scan
        # lower bounds (blocking descendants re-enable it themselves via
        # `finished`/materialized refinements).
        _, child_upper = visit(
            node.child, exec_lower, exec_upper, single_exec, False
        )
        upper = min(float(node.limit), max(0.0, child_upper - node.offset))
        return float(produced), max(upper, float(produced))

    if kind == _UNION:
        lowers, uppers = 0.0, 0.0
        for child in node.children:
            child_lower, child_upper = visit(
                child, exec_lower, exec_upper, single_exec, full_scan
            )
            lowers += child_lower
            uppers += child_upper
        return max(lowers, float(produced)), max(uppers, float(produced))

    # Unknown operator: be conservative.
    lowers, uppers = 0.0, 0.0
    for child in node.children:
        child_lower, child_upper = visit(
            child, exec_lower, exec_upper, single_exec, full_scan
        )
        lowers += child_lower
        uppers += child_upper
    return float(produced), max(uppers, float(produced))


def _compile_derive_std(node, kind, static, child_visits):
    """Construction-time twin of :func:`_derive` for a node that provably
    always executes under the standard context ``(exec_lower=1.0,
    exec_upper=1.0, single_exec=True, full_scan=True)`` — the root's
    context, preserved by every edge except a LIMIT's or a ⋈NL inner's (see
    :func:`standard_flags`).

    Returns a zero-argument ``derive_std() -> (lower, upper)`` with this
    node's single rule specialized: statics, child visitors and immutable
    flags are bound as closure cells, and the context constants are folded
    (``x * 1.0 == x`` exactly under IEEE 754; ``single_exec``/``full_scan``
    branches are resolved at compile time).  Every fold is value-preserving,
    and every float expression must mirror :func:`_derive` operation for
    operation: the equivalence suite asserts the incremental tracker stays
    bit-identical to the reference at every sampled instant.
    """
    if kind == _SCAN:
        n = static

        def derive_std():
            return n, n

        return derive_std

    if kind == _SEEK:
        lower_f = float(static[0])
        upper_f = float(static[1])

        def derive_std():
            produced = float(node.rows_produced)
            return max(lower_f, produced), max(upper_f, produced)

        return derive_std

    if kind == _FILTER:
        child = node.child
        child_visit = child_visits[0]
        if static is None:

            def derive_std():
                _, child_upper = child_visit(1.0, 1.0, True, True)
                produced = node.rows_produced
                consumed = child.rows_produced
                remaining = max(0.0, child_upper - consumed)
                in_flight = 1.0 if consumed > produced else 0.0
                produced_f = float(produced)
                return produced_f, produced_f + remaining + in_flight

            return derive_std
        hist_lower, hist_upper = float(static[0]), float(static[1])

        def derive_std():
            _, child_upper = child_visit(1.0, 1.0, True, True)
            produced = node.rows_produced
            consumed = child.rows_produced
            remaining = max(0.0, child_upper - consumed)
            in_flight = 1.0 if consumed > produced else 0.0
            produced_f = float(produced)
            lower = max(produced_f, hist_lower)
            upper = min(produced_f + remaining + in_flight, max(hist_upper, lower))
            return lower, upper

        return derive_std

    if kind == _SORT:
        child_visit = child_visits[0]

        def derive_std():
            child_lower, child_upper = child_visit(1.0, 1.0, True, True)
            materialized = node.materialized_count()
            if materialized is not None:
                exact = float(materialized)
                return exact, exact
            return max(child_lower, float(node.rows_produced)), child_upper

        return derive_std

    if kind == _PROJECT:
        child_visit = child_visits[0]

        def derive_std():
            child_lower, child_upper = child_visit(1.0, 1.0, True, True)
            return max(child_lower, float(node.rows_produced)), child_upper

        return derive_std

    if kind == _TOPN:
        child_visit = child_visits[0]
        limit_f = float(node.limit)

        def derive_std():
            child_lower, child_upper = child_visit(1.0, 1.0, True, True)
            materialized = node.materialized_count()
            if materialized is not None:
                exact = float(materialized)
                return exact, exact
            upper = min(limit_f, child_upper)
            lower = max(float(node.rows_produced), min(limit_f, child_lower))
            return lower, max(upper, lower)

        return derive_std

    if kind == _DISTINCT:
        child_visit = child_visits[0]

        def derive_std():
            _, child_upper = child_visit(1.0, 1.0, True, True)
            produced = float(node.rows_produced)
            return produced, max(child_upper, produced)

        return derive_std

    if kind == _AGG_HASH or kind == _AGG_STREAM:
        child_visit = child_visits[0]
        grouped = bool(node.group_by)
        hashed = kind == _AGG_HASH

        def derive_std():
            _, child_upper = child_visit(1.0, 1.0, True, True)
            if not grouped:
                return 1.0, 1.0
            groups = 0.0
            if hashed:
                if node.input_consumed:
                    exact = float(node.groups_seen())
                    return exact, exact
                groups = float(node.groups_seen())
            lower = max(groups, float(node.rows_produced))
            return lower, max(child_upper, lower, groups)

        return derive_std

    if kind == _HASH_JOIN:
        build_visit, probe_visit = child_visits
        linear = node.is_linear
        preserve = node.preserve_probe

        def derive_std():
            _, build_upper = build_visit(1.0, 1.0, True, True)
            probe_lower, probe_upper = probe_visit(1.0, 1.0, True, True)
            if linear:
                upper = max(build_upper, probe_upper)
            else:
                upper = build_upper * probe_upper
            lower = float(node.rows_produced)
            upper = max(upper, lower)
            if preserve:
                lower = max(lower, probe_lower)
                upper = upper + probe_upper
            return lower, upper

        return derive_std

    if kind == _MERGE_JOIN:
        left_visit, right_visit = child_visits
        linear = node.is_linear

        def derive_std():
            _, left_upper = left_visit(1.0, 1.0, True, True)
            _, right_upper = right_visit(1.0, 1.0, True, True)
            if linear:
                upper = max(left_upper, right_upper)
            else:
                upper = left_upper * right_upper
            produced = float(node.rows_produced)
            return produced, max(upper, produced)

        return derive_std

    if kind == _INL_JOIN:
        child_visit = child_visits[0]
        inner_size = static
        linear = node.is_linear

        def derive_std():
            _, outer_upper = child_visit(1.0, 1.0, True, True)
            if linear:
                upper = max(outer_upper, inner_size)
            else:
                upper = outer_upper * inner_size
            produced = float(node.rows_produced)
            return produced, max(upper, produced)

        return derive_std

    if kind == _NL_JOIN:
        outer_visit, inner_visit = child_visits
        linear = node.is_linear

        def derive_std():
            outer_lower, outer_upper = outer_visit(1.0, 1.0, True, True)
            _, inner_upper = inner_visit(outer_lower, outer_upper, False, True)
            if linear:
                upper = max(outer_upper, inner_upper)
            else:
                upper = outer_upper * inner_upper
            produced = float(node.rows_produced)
            return produced, max(upper, produced)

        return derive_std

    if kind == _LIMIT:
        child_visit = child_visits[0]
        limit_f = float(node.limit)
        offset = node.offset

        def derive_std():
            _, child_upper = child_visit(1.0, 1.0, True, False)
            upper = min(limit_f, max(0.0, child_upper - offset))
            produced = float(node.rows_produced)
            return produced, max(upper, produced)

        return derive_std

    if kind == _UNION:

        def derive_std():
            lowers, uppers = 0.0, 0.0
            for child_visit in child_visits:
                child_lower, child_upper = child_visit(1.0, 1.0, True, True)
                lowers += child_lower
                uppers += child_upper
            produced = float(node.rows_produced)
            return max(lowers, produced), max(uppers, produced)

        return derive_std

    def derive_std():
        uppers = 0.0
        for child_visit in child_visits:
            _, child_upper = child_visit(1.0, 1.0, True, True)
            uppers += child_upper
        produced = float(node.rows_produced)
        return produced, max(uppers, produced)

    return derive_std


def standard_flags(root: Operator) -> Dict[int, bool]:
    """Which nodes provably always execute under the standard context.

    The root does; blocking drains (sort, top-n, hash aggregate, hash-join
    build) re-impose it; a LIMIT's child loses ``full_scan`` and a ⋈NL's
    inner loses ``single_exec``.  Two readers: the incremental tracker
    gives a standard node the folded :func:`_compile_derive_std` visitor,
    and extra bound providers only cap standard nodes — there a node's
    total counted getnext calls equal its single full-scan output, so a
    sound cardinality bound on the output is a sound bound on the total.
    """
    flags: Dict[int, bool] = {}

    def walk(node: Operator, standard: bool) -> None:
        flags[node.operator_id] = standard
        kind = _classify(node)
        children = node.children
        if kind == _SORT or kind == _TOPN or kind == _AGG_HASH:
            child_standard = [True] * len(children)
        elif kind == _HASH_JOIN:
            child_standard = [True, standard]
        elif kind == _NL_JOIN:
            child_standard = [standard, False]
        elif kind == _LIMIT:
            child_standard = [False] * len(children)
        else:
            child_standard = [standard] * len(children)
        for child, child_std in zip(children, child_standard):
            walk(child, child_std)

    walk(root, True)
    return flags
