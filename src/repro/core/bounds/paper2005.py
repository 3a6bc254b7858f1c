"""The paper's §5.1 cardinality-bound rules — the ``paper2005`` provider.

Each rule is written once, as one function per operator kind (:data:`RULES`,
keyed by the :func:`_classify` tag), for any execution context.  The
reference tracker recurses through that table; the incremental tracker's
two visitors call the same functions, the standard one with the root's
context ``(1.0, 1.0, True, True)`` (on the benchmark's plans, 235 of 236
nodes — see :func:`repro.engine.plan.standard_flags`).

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
    """Map an operator to its bounds-rule tag, its key in :data:`RULES`."""
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


#: one child's visitor: ``visit(exec_lower, exec_upper, single_exec,
#: full_scan) -> (lower, upper)``, the child's per-pass output bounds
_Visit = Callable[[float, float, bool, bool], Tuple[float, float]]

# -- the rules ---------------------------------------------------------------------
#
# One function per dispatch tag, all with the signature
#
#     rule(node, static, produced, single_exec, full_scan,
#          exec_lower, exec_upper, visits) -> (lower, upper)
#
# the per-pass output bounds of one unfinished node.  ``static`` is the
# node's :func:`_static_payload`; ``produced`` its per-pass output so far
# (0 when ``single_exec`` is off: the counters are cumulative across
# rescans); ``visits`` its children's visitors, in ``node.children`` order.
# The reference tracker and both of the incremental tracker's visitors
# call these same functions, so a rule is stated once.


def _scan_rule(node, static, produced, single_exec, full_scan,
               exec_lower, exec_upper, visits):
    n = static
    if full_scan:
        return n, n
    return float(produced), n


def _seek_rule(node, static, produced, single_exec, full_scan,
               exec_lower, exec_upper, visits):
    lower, upper = static
    if not full_scan:
        lower = 0
    return max(float(lower), float(produced)), max(float(upper), float(produced))


def _filter_rule(node, static, produced, single_exec, full_scan,
                 exec_lower, exec_upper, visits):
    _, child_upper = visits[0](exec_lower, exec_upper, single_exec, full_scan)
    consumed = node.children[0].rows_produced if single_exec else 0
    remaining = max(0.0, child_upper - consumed)
    # +1: a row the child just produced may be in flight inside this
    # filter (observers fire inside the child's get_next, before the
    # filter has decided the row's fate).
    in_flight = 1.0 if single_exec and consumed > produced else 0.0
    lower = float(produced)
    upper = lower + remaining + in_flight
    if static is not None and single_exec and full_scan:
        hist_lower, hist_upper = static
        lower = max(lower, float(hist_lower))
        upper = min(upper, max(float(hist_upper), lower))
    return lower, upper


def _project_rule(node, static, produced, single_exec, full_scan,
                  exec_lower, exec_upper, visits):
    child_lower, child_upper = visits[0](
        exec_lower, exec_upper, single_exec, full_scan
    )
    if not full_scan:
        return float(produced), child_upper
    return max(child_lower, float(produced)), child_upper


def _sort_rule(node, static, produced, single_exec, full_scan,
               exec_lower, exec_upper, visits):
    # A blocking consumer drains its input no matter what happens above
    # it, so the child keeps the full-scan guarantee a LIMIT higher up
    # would otherwise cancel — and, because blocking state is spooled
    # across NL-join rescans, the drained subtree executes exactly once
    # regardless of the rescan count.
    child_lower, child_upper = visits[0](1.0, 1.0, True, True)
    # Spooled once even under rescans: the materialized count is this
    # node's exact per-pass output — but a LIMIT above may still cut the
    # emission short, so it is only a lower bound when the full-scan
    # guarantee is gone.
    materialized = node.materialized_count()
    if materialized is not None:
        if full_scan:
            return float(materialized), float(materialized)
        return float(produced), float(materialized)
    if not full_scan:
        return float(produced), child_upper
    return max(child_lower, float(produced)), child_upper


def _topn_rule(node, static, produced, single_exec, full_scan,
               exec_lower, exec_upper, visits):
    child_lower, child_upper = visits[0](1.0, 1.0, True, True)
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


def _distinct_rule(node, static, produced, single_exec, full_scan,
                   exec_lower, exec_upper, visits):
    _, child_upper = visits[0](exec_lower, exec_upper, single_exec, full_scan)
    return float(produced), max(child_upper, float(produced))


def _hash_aggregate_rule(node, static, produced, single_exec, full_scan,
                         exec_lower, exec_upper, visits):
    _, child_upper = visits[0](1.0, 1.0, True, True)
    if not node.group_by:
        return (1.0 if full_scan else float(produced)), 1.0
    # Also spooled once: group counts are per-pass exact.
    if node.input_consumed:
        exact = float(node.groups_seen())
        if full_scan:
            return exact, exact
        return float(produced), exact
    groups = float(node.groups_seen())
    lower = max(groups, float(produced)) if full_scan else float(produced)
    return lower, max(child_upper, lower, groups)


def _stream_aggregate_rule(node, static, produced, single_exec, full_scan,
                           exec_lower, exec_upper, visits):
    _, child_upper = visits[0](exec_lower, exec_upper, single_exec, full_scan)
    if not node.group_by:
        return (1.0 if full_scan else float(produced)), 1.0
    return float(produced), max(child_upper, float(produced))


def _hash_join_rule(node, static, produced, single_exec, full_scan,
                    exec_lower, exec_upper, visits):
    _, build_upper = visits[0](1.0, 1.0, True, True)
    probe_lower, probe_upper = visits[1](
        exec_lower, exec_upper, single_exec, full_scan
    )
    if node.is_linear:
        upper = max(build_upper, probe_upper)
    else:
        upper = build_upper * probe_upper
    lower = float(produced)
    upper = max(upper, lower)
    if node.preserve_probe:
        # Probe-side outer join: every probe row emits at least one
        # output row (a match or a NULL-padded copy).
        if full_scan:
            lower = max(lower, probe_lower)
        upper = upper + probe_upper
    return lower, upper


def _merge_join_rule(node, static, produced, single_exec, full_scan,
                     exec_lower, exec_upper, visits):
    _, left_upper = visits[0](exec_lower, exec_upper, single_exec, full_scan)
    _, right_upper = visits[1](exec_lower, exec_upper, single_exec, full_scan)
    if node.is_linear:
        upper = max(left_upper, right_upper)
    else:
        upper = left_upper * right_upper
    return float(produced), max(upper, float(produced))


def _index_nested_loops_rule(node, static, produced, single_exec, full_scan,
                             exec_lower, exec_upper, visits):
    _, outer_upper = visits[0](exec_lower, exec_upper, single_exec, full_scan)
    inner_size = static
    if node.is_linear:
        upper = max(outer_upper, inner_size)
    else:
        upper = outer_upper * inner_size
    return float(produced), max(upper, float(produced))


def _nested_loops_rule(node, static, produced, single_exec, full_scan,
                       exec_lower, exec_upper, visits):
    outer_lower, outer_upper = visits[0](
        exec_lower, exec_upper, single_exec, full_scan
    )
    # The inner subtree runs once per outer row; its counters are
    # cumulative across rescans, so per-pass refinement is off.  If a
    # LIMIT above can cut the join mid-stream, the latest rescan may be
    # incomplete, so only outer_lower - 1 passes are guaranteed.
    guaranteed_passes = outer_lower if full_scan else max(0.0, outer_lower - 1)
    _, inner_upper = visits[1](
        exec_lower * guaranteed_passes, exec_upper * outer_upper, False, True
    )
    if node.is_linear:
        upper = max(outer_upper, inner_upper)
    else:
        upper = outer_upper * inner_upper
    return float(produced), max(upper, float(produced))


def _limit_rule(node, static, produced, single_exec, full_scan,
                exec_lower, exec_upper, visits):
    # Descendants may be cut off mid-stream: drop their full-scan lower
    # bounds (blocking descendants re-enable it themselves via
    # `finished`/materialized refinements).
    _, child_upper = visits[0](exec_lower, exec_upper, single_exec, False)
    upper = min(float(node.limit), max(0.0, child_upper - node.offset))
    return float(produced), max(upper, float(produced))


def _union_rule(node, static, produced, single_exec, full_scan,
                exec_lower, exec_upper, visits):
    lowers, uppers = 0.0, 0.0
    for visit in visits:
        child_lower, child_upper = visit(
            exec_lower, exec_upper, single_exec, full_scan
        )
        lowers += child_lower
        uppers += child_upper
    return max(lowers, float(produced)), max(uppers, float(produced))


def _other_rule(node, static, produced, single_exec, full_scan,
                exec_lower, exec_upper, visits):
    # Unknown operator: be conservative.
    uppers = 0.0
    for visit in visits:
        _, child_upper = visit(exec_lower, exec_upper, single_exec, full_scan)
        uppers += child_upper
    return float(produced), max(uppers, float(produced))


_Rule = Callable[
    [Operator, object, int, bool, bool, float, float, Tuple[_Visit, ...]],
    Tuple[float, float],
]

#: the rule for each dispatch tag
RULES: Dict[int, _Rule] = {
    _SCAN: _scan_rule,
    _SEEK: _seek_rule,
    _FILTER: _filter_rule,
    _PROJECT: _project_rule,
    _SORT: _sort_rule,
    _TOPN: _topn_rule,
    _DISTINCT: _distinct_rule,
    _AGG_HASH: _hash_aggregate_rule,
    _AGG_STREAM: _stream_aggregate_rule,
    _HASH_JOIN: _hash_join_rule,
    _MERGE_JOIN: _merge_join_rule,
    _INL_JOIN: _index_nested_loops_rule,
    _NL_JOIN: _nested_loops_rule,
    _LIMIT: _limit_rule,
    _UNION: _union_rule,
    _OTHER: _other_rule,
}
