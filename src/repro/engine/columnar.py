"""The columnar engine: batch execution with tick-exact replay.

The third engine behind :func:`repro.engine.executor.execute`.  Where
the interpreted engine pulls one row per ``get_next`` and the fused engine
generates one row loop per pipeline, this engine materializes each
pipeline's data flow as whole columns (NumPy arrays when
:mod:`repro.storage.columnar` packed them, plain lists otherwise), computes
every operator's output batch with vectorized kernels — and then *replays*
the work model: every counted operator's tick positions are reconstructed
exactly, so cadence observers, pipeline-boundary forced rounds, and the
event stream fire at precisely the interpreted engine's tick numbers with
precisely the interpreted engine's observable operator state.

The replay rests on one uniform accounting model.  Every stage of a
pipeline chain exposes *items*: its ``n`` real output rows plus one
sentinel (the pull that returns end-of-stream).  A per-stage ``cons`` array
records, per item, the cumulative number of child items consumed up to and
including that item's emission — which uniformly encodes leading/trailing
consumption (a filter draining non-passing rows), stream aggregation's
lookahead (the last group's emission consumes the child's sentinel), LIMIT
truncation (the child's sentinel is consumed only if the child exhausted
during the limited pull), and finish events (an operator finishes exactly
when its sentinel is consumed).  From the ``cons`` arrays a single
recursion assigns every tick its global position; the replay loop then
advances through the positions in windows clamped to
``ExecutionMonitor.ticks_until_next_observer()`` and to the next finish
marker, updating ``rows_produced`` and blocking-operator build state
*before* each ``record_batch`` so every observer reads interpreted state.

Pipelines run in the interpreted engine's order: walking a chain top-down,
each hash join's build side executes first (a full recursive pipeline into
a build sink), then deeper joins, then — if the chain bottoms out at a
blocking operator — that operator's input pipeline; only then does the
chain itself replay.  Plans containing operators without a vectorized
translation (merge joins, plain nested loops, UNION ALL, user-defined
nodes) fall back per-subtree: fully-supported blocking islands still run
vectorized inside an otherwise fused program (see
:class:`_ColumnarCompiler`), and everything else uses the fused engine's
compilers unchanged.  Expressions without an exact vectorized translation
fall back row-at-a-time per stage via the operators' own bound functions.

NumPy is optional: every kernel has a list fallback (bisect, accumulate,
comprehensions) with identical semantics.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import repro.storage.columnar as colstore
from repro.engine.compiled import _Compiler, _Node
from repro.engine.operators.aggregate import (
    AggregateKind,
    HashAggregate,
    StreamAggregate,
    _Accumulator,
)
from repro.engine.operators.base import ExecutionContext, Operator
from repro.engine.operators.filter import Filter
from repro.engine.operators.hash_join import HashJoin
from repro.engine.operators.index_nested_loops import IndexNestedLoopsJoin
from repro.engine.operators.misc import Distinct, Limit
from repro.engine.operators.project import Project
from repro.engine.operators.scan import RowSource, TableScan
from repro.engine.operators.sort import Sort
from repro.engine.operators.topn import TopN, _OrderedRow
from repro.engine.vectorize import Unvectorizable, evaluate, tolist, truth_mask
from repro.storage.columnar import columns_for, pack_values
from repro.storage.table import Row

try:  # pragma: no cover - exercised via the no-NumPy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: operator types with a vectorized translation; anything else falls back
_VEC_TYPES = frozenset(
    (
        TableScan,
        RowSource,
        Filter,
        Project,
        HashJoin,
        IndexNestedLoopsJoin,
        Sort,
        TopN,
        HashAggregate,
        StreamAggregate,
        Limit,
        Distinct,
    )
)

#: blocking operators the fallback compiler can still run as vector islands
_BLOCKING_VEC_TYPES = (Sort, TopN, HashAggregate)


def _vec_supported(op: Operator) -> bool:
    """True when every operator in ``op``'s subtree has a vectorized path."""
    return all(type(node) in _VEC_TYPES for node in op.walk())


def _use_np() -> bool:
    return _np is not None and colstore.HAVE_NUMPY


def _is_np(values: object) -> bool:
    return _np is not None and isinstance(values, _np.ndarray)


def _gather(col, idx):
    """``col`` at positions ``idx``; arrays stay arrays, lists stay lists."""
    if type(col) is _Deferred:
        return _Deferred(col.source, _gather(col.indices, idx))
    if _is_np(col):
        return col[idx]
    if _is_np(idx):
        idx = idx.tolist()
    return [col[j] for j in idx]


class _Deferred:
    """A postponed gather: ``source`` at ``indices``, composed across stages.

    Joins and filters over wide schemas reorder every column of their
    input, but most of those columns are never read — they are joined away,
    projected out, or only carried to a sink that looks at a handful of
    them.  A stage therefore emits ``_Deferred(source, indices)`` handles
    instead of copying; stacked stages compose the int64 index arrays
    (``source[i1][i2] == source[i1[i2]]``), and only a column something
    actually touches pays for a materializing gather.
    """

    __slots__ = ("source", "indices")

    def __init__(self, source, indices) -> None:
        self.source = source
        self.indices = indices

    def resolve(self):
        return _gather(self.source, self.indices)


def _defer(col, idx):
    """Postpone gathering ``col`` at ``idx`` (composing prior deferrals)."""
    if type(col) is _Deferred:
        return _Deferred(col.source, _gather(col.indices, idx))
    return _Deferred(col, idx)


def _resolve(col):
    """Materialize a deferred gather; already-real vcols pass through."""
    if type(col) is _Deferred:
        return col.resolve()
    return col


def _slice_col(col, first: int, last: int):
    """``col[first:last]`` with deferred gathers staying deferred."""
    if type(col) is _Deferred:
        return _Deferred(col.source, col.indices[first:last])
    return col[first:last]


class _LazyCols(list):
    """A column list that materializes deferred gathers on indexed access.

    Indexing resolves (and caches in place) so expression evaluation over a
    batch sees real vcols; plain iteration yields the raw entries so stage
    gathers can keep composing deferrals instead of forcing them.
    """

    def __getitem__(self, index):
        value = list.__getitem__(self, index)
        if type(value) is _Deferred:
            value = value.resolve()
            list.__setitem__(self, index, value)
        return value


def _mask_indices(mask):
    """Positions where a selection mask holds (ascending).

    Returns an int64 array whenever NumPy is available — even for Python
    list masks (row-fallback predicates) — so downstream gathers and
    deferral compositions stay on the C fancy-indexing path.
    """
    if _is_np(mask):
        return _np.flatnonzero(mask)
    kept = [j for j, keep in enumerate(mask) if keep]
    if _use_np():
        return _np.asarray(kept, dtype=_np.int64)
    return kept


def _cons_from_indices(idx, sentinel: int):
    """``cons`` for a stage whose output ``i`` consumed child item ``idx[i]``."""
    if _is_np(idx):
        return _np.concatenate(
            (idx.astype(_np.int64) + 1, _np.array([sentinel], dtype=_np.int64))
        )
    return [j + 1 for j in idx] + [sentinel]


def _excl_cumsum(values):
    """Exclusive prefix sums: length ``len(values) + 1``, starts at 0."""
    if _is_np(values):
        out = _np.empty(len(values) + 1, dtype=_np.int64)
        out[0] = 0
        _np.cumsum(values, out=out[1:])
        return out
    return list(accumulate(values, initial=0))


class _Batch:
    """One operator's full output: a schema plus one vcol per column."""

    __slots__ = ("schema", "cols", "n", "_rows")

    def __init__(self, schema, cols, n: int) -> None:
        self.schema = schema
        self.cols = _LazyCols(cols)
        self.n = n
        self._rows: Optional[List[Row]] = None

    def rows(self) -> List[Row]:
        """The batch as native Python row tuples (cached)."""
        if self._rows is None:
            if self.n == 0:
                self._rows = []
            else:
                cols = self.cols
                self._rows = list(
                    zip(*[tolist(cols[i]) for i in range(len(cols))])
                )
        return self._rows


class _SpoolRows:
    """A committed sort's spool, transposed to row tuples only on demand.

    The sort contract pins ``op._rows`` at commit — ``materialized_count``
    reads its length, rescans index into it — but a fully vectorized plan
    only ever reads the *length*.  Transposing a wide sorted batch into
    tuples is the costliest step of a large ORDER BY, so it waits for the
    first element access (island emission, a rescanning parent).
    """

    __slots__ = ("_batch",)

    def __init__(self, batch: _Batch) -> None:
        self._batch = batch

    def __len__(self) -> int:
        return self._batch.n

    def __getitem__(self, index):
        return self._batch.rows()[index]

    def __iter__(self):
        return iter(self._batch.rows())


def _rows_to_batch(schema, rows: Sequence[Row]) -> _Batch:
    rows = list(rows)
    if not rows:
        return _Batch(schema, [[] for _ in range(len(schema))], 0)
    cols = [pack_values(values, None) for values in zip(*rows)]
    batch = _Batch(schema, cols, len(rows))
    batch._rows = rows
    return batch


class _Stage:
    """One streaming operator's computed output within a pipeline chain.

    ``cons`` has ``n + 1`` entries over the stage's items (``n`` outputs
    plus the sentinel): ``cons[i]`` is the cumulative number of child items
    consumed through item ``i``.  ``None`` for the chain's source stage.
    """

    __slots__ = ("op", "batch", "cons")

    def __init__(self, op: Operator, batch: _Batch, cons) -> None:
        self.op = op
        self.batch = batch
        self.cons = cons


# ---------------------------------------------------------------------------
# keyed equality lookups (hash-join builds and ⋈INL inner indexes)
# ---------------------------------------------------------------------------


def _kinds_joinable(a, b) -> bool:
    """True when NumPy equality on these arrays matches Python ``==``."""
    numeric = "bif"
    if a.dtype.kind in numeric and b.dtype.kind in numeric:
        return True
    return a.dtype.kind == "U" and b.dtype.kind == "U"


class _KeyedLookup:
    """Equality lookup from key values to ascending positions.

    Probing returns, per matching pair, the probe index and the matched
    position — positions ascending within one probe key, which is both the
    hash join's bucket insertion order and the order either index type
    returns matches in.  NULL keys never enter the structure and never
    match.
    """

    __slots__ = ("keys", "n", "_order", "_sorted", "_dict")

    def __init__(self, keys, n: int) -> None:
        self.keys = keys
        self.n = n
        self._order = None
        self._sorted = None
        self._dict: Optional[Dict[object, List[int]]] = None

    def _ensure_dict(self) -> Dict[object, List[int]]:
        if self._dict is None:
            table: Dict[object, List[int]] = {}
            for position, key in enumerate(tolist(self.keys)):
                if key is None:
                    continue  # NULL keys never join
                table.setdefault(key, []).append(position)
            self._dict = table
        return self._dict

    def probe(self, probe_keys, n_probe: int):
        """-> ``(probe_idx, positions)`` flat match pairs, probe order."""
        if (
            _is_np(self.keys)
            and _is_np(probe_keys)
            and _kinds_joinable(self.keys, probe_keys)
        ):
            if self._order is None:
                # A stable argsort keeps equal keys in insertion (position)
                # order — the dict path's bucket order.
                self._order = _np.argsort(self.keys, kind="stable")
                self._sorted = self.keys[self._order]
            lo = _np.searchsorted(self._sorted, probe_keys, side="left")
            hi = _np.searchsorted(self._sorted, probe_keys, side="right")
            fanout = hi - lo
            total = int(fanout.sum())
            if total == 0:
                empty = _np.zeros(0, dtype=_np.int64)
                return empty, empty
            probe_idx = _np.repeat(
                _np.arange(n_probe, dtype=_np.int64), fanout
            )
            bursts = _np.repeat(_excl_cumsum(fanout)[:-1], fanout)
            within = _np.arange(total, dtype=_np.int64) - bursts
            positions = self._order[_np.repeat(lo, fanout) + within]
            return probe_idx, positions
        table = self._ensure_dict()
        probe_idx: List[int] = []
        positions: List[int] = []
        for j, key in enumerate(tolist(probe_keys)):
            if key is None:
                continue
            matches = table.get(key)
            if matches:
                probe_idx.extend([j] * len(matches))
                positions.extend(matches)
        if _use_np():
            return (
                _np.asarray(probe_idx, dtype=_np.int64),
                _np.asarray(positions, dtype=_np.int64),
            )
        return probe_idx, positions


#: per-index probe structures, shared across runs (indexes are immutable)
_index_lookups: "WeakKeyDictionary[object, Tuple[_KeyedLookup, list]]" = (
    WeakKeyDictionary()
)


def _index_lookup(index) -> Tuple[_KeyedLookup, list]:
    cached = _index_lookups.get(index)
    if cached is not None:
        return cached
    inner_cols = columns_for(index.table)
    lookup = _KeyedLookup(inner_cols[index._position], len(index.table))
    entry = (lookup, inner_cols)
    _index_lookups[index] = entry
    return entry


# ---------------------------------------------------------------------------
# aggregation kernels (shared by HashAggregate sinks and StreamAggregate)
# ---------------------------------------------------------------------------


def _spec_value_vcols(op, batch: _Batch) -> List[Optional[object]]:
    """Per-spec evaluated argument vcols (None slot for COUNT(*))."""
    vcols: List[Optional[object]] = []
    for index, spec in enumerate(op.aggregates):
        if spec.argument is None:
            vcols.append(None)
            continue
        try:
            vcols.append(
                evaluate(spec.argument, batch.schema, batch.cols, batch.n)
            )
        except Unvectorizable:
            fn = op._argument_fns[index]
            vcols.append([fn(row) for row in batch.rows()])
    return vcols


def _group_key_vcols(op, batch: _Batch) -> List[object]:
    """One evaluated vcol per GROUP BY expression."""
    vcols: List[object] = []
    for index, (_, expression) in enumerate(op.group_by):
        try:
            vcols.append(
                evaluate(expression, batch.schema, batch.cols, batch.n)
            )
        except Unvectorizable:
            fn = op._group_fns[index]
            vcols.append([fn(row) for row in batch.rows()])
    return vcols


def _cluster_keys(vcols: List[object], n: int):
    """Cluster rows by equal key tuples, ordered by first arrival — or None.

    Returns ``(firsts, order, sizes)`` arrays: per distinct key tuple, in
    order of first occurrence, the row index of its first occurrence (so
    ``firsts`` is ascending); ``order`` holds every row index with each
    cluster contiguous and its rows in arrival order; ``sizes`` the cluster
    widths.  None when any key column is not an exact-typed array or holds
    NaNs — array equality and Python's dict/set equality agree on exact
    ints, floats, bools and strings (±0.0 land in one cluster either way),
    but NaNs do not (a dict groups by object identity first), so those
    fall back to the per-row structures.
    """
    if n == 0 or not vcols or not _use_np():
        return None
    for vcol in vcols:
        if not _is_np(vcol):
            return None
        if vcol.dtype.kind == "f" and _np.isnan(vcol).any():
            return None
    # lexsort is stable, so equal tuples land adjacent with their rows in
    # arrival order (it keys on the *last* array first, hence the reverse).
    perm = _np.lexsort(tuple(reversed(vcols)))
    boundary = _np.zeros(n - 1, dtype=bool)
    for vcol in vcols:
        ordered = vcol[perm]
        boundary |= ordered[1:] != ordered[:-1]
    starts = _np.concatenate(
        (_np.zeros(1, dtype=_np.int64), _np.flatnonzero(boundary) + 1)
    )
    sizes_sorted = _np.diff(_np.append(starts, n))
    firsts_sorted = perm[starts]
    emit = _np.argsort(firsts_sorted, kind="stable")  # first-arrival order
    rank = _np.empty(len(starts), dtype=_np.int64)
    rank[emit] = _np.arange(len(starts), dtype=_np.int64)
    order = perm[_np.argsort(_np.repeat(rank, sizes_sorted), kind="stable")]
    return firsts_sorted[emit], order, sizes_sorted[emit]


def _int_sum_in_range(arr) -> bool:
    """True when no int64 ``reduceat`` partial sum can overflow.

    Integer addition is associative, so NumPy's reassociation is harmless
    for integer sums — wraparound is the only way ``add.reduceat`` could
    diverge from the Python left-fold (whose ints are unbounded).  Bounding
    every partial sum by ``len * max|value|`` rules it out conservatively.
    """
    if not len(arr):
        return True
    peak = max(-int(arr.min()), int(arr.max()))
    return peak * len(arr) < 2 ** 63


def _reduce_spec(values, order: Optional[List[int]], bounds: List[int]):
    """Per-segment ``(counts, sums, mins, maxs)`` for one aggregate argument.

    ``order`` (None for already-clustered input) maps segment slots to row
    indices; ``bounds`` delimits the segments over the ordered rows, in row
    order within each segment.  Bit-identical to per-row
    ``_Accumulator.update``: counts ignore NULLs, sums add numeric non-bool
    values in row order, min/max keep the first extremal value.  Float sums
    left-fold with built-in ``sum`` over native values — ``np.add.reduceat``
    reassociates float additions and is deliberately NOT used for them;
    integer sums DO use ``reduceat`` (addition is associative) whenever
    :func:`_int_sum_in_range` rules out int64 wraparound.  The min/max
    ``reduceat`` on NULL-free arrays is order-insensitive for totally
    ordered values (the typed columns carry no NaNs, where NumPy's
    propagate-NaN and Python's keep-first semantics would part ways).
    """
    group_count = len(bounds) - 1
    counts = [0] * group_count
    sums: List[object] = [None] * group_count
    mins: List[object] = [None] * group_count
    maxs: List[object] = [None] * group_count
    if group_count == 0:
        return counts, sums, mins, maxs
    if _is_np(values):  # NULL-free by the packing invariant
        if order is None:
            arr = values
        else:
            arr = values[_np.asarray(order, dtype=_np.int64)]
        kind = arr.dtype.kind
        starts = _np.asarray(bounds[:-1], dtype=_np.int64)
        counts = _np.diff(_np.asarray(bounds, dtype=_np.int64)).tolist()
        if kind in "bif":
            mins = _np.minimum.reduceat(arr, starts).tolist()
            maxs = _np.maximum.reduceat(arr, starts).tolist()
        else:
            native = arr.tolist()
            for g in range(group_count):
                segment = native[bounds[g]:bounds[g + 1]]
                mins[g] = min(segment)
                maxs[g] = max(segment)
        if kind == "i" and _int_sum_in_range(arr):
            sums = _np.add.reduceat(arr, starts).tolist()
        elif kind in "if":
            native = arr.tolist()
            for g in range(group_count):
                lo, hi = bounds[g], bounds[g + 1]
                sums[g] = sum(native[lo + 1:hi], native[lo])
        return counts, sums, mins, maxs
    for g in range(group_count):
        if order is None:
            indices = range(bounds[g], bounds[g + 1])
        else:
            indices = order[bounds[g]:bounds[g + 1]]
        present = [values[j] for j in indices if values[j] is not None]
        if not present:
            continue
        counts[g] = len(present)
        numeric = [
            v
            for v in present
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        if numeric:
            sums[g] = sum(numeric[1:], numeric[0])
        mins[g] = min(present)
        maxs[g] = max(present)
    return counts, sums, mins, maxs


def _finalized_spec_columns(op, sizes: List[int], reduced) -> List[object]:
    """One output column per aggregate spec — ``finalize`` semantics."""
    group_count = len(sizes)
    cols: List[object] = []
    for i, spec in enumerate(op.aggregates):
        kind = spec.kind
        if kind is AggregateKind.COUNT_STAR:
            col: List[object] = list(sizes)
        else:
            counts, sums, mins, maxs = reduced[i]
            if kind is AggregateKind.COUNT:
                col = list(counts)
            elif kind is AggregateKind.SUM:
                col = list(sums)
            elif kind is AggregateKind.AVG:
                col = [
                    None if counts[g] == 0 else sums[g] / counts[g]
                    for g in range(group_count)
                ]
            elif kind is AggregateKind.MIN:
                col = list(mins)
            else:
                col = list(maxs)
        cols.append(pack_values(col, None))
    return cols


def _stable_argsort(values, descending: bool):
    """Stable order indices, ties in original order either direction.

    Descending has no direct NumPy spelling: a stable ascending argsort of
    the *reversed* array, mapped back and reversed, yields exactly Python's
    ``sort(reverse=True)`` — descending keys with ties kept in original
    order (``reverse=True`` negates comparisons; it never reorders ties).
    """
    if not descending:
        return _np.argsort(values, kind="stable")
    reverse = _np.argsort(values[::-1], kind="stable")
    return (len(values) - 1) - reverse[::-1]


def _run_starts(key_vcols, n: int) -> List[int]:
    """Start offsets of each key run in already-clustered input."""
    if n == 0:
        return []
    if key_vcols and all(_is_np(col) for col in key_vcols):
        changed = None
        for col in key_vcols:
            delta = col[1:] != col[:-1]
            changed = delta if changed is None else (changed | delta)
        return [0] + (_np.flatnonzero(changed) + 1).tolist()
    lists = [tolist(col) for col in key_vcols]
    starts = [0]
    for j in range(1, n):
        for values in lists:
            a, b = values[j - 1], values[j]
            # Identity first: tuple equality treats identical objects as
            # equal without calling __eq__, and None == None must hold.
            if a is not b and a != b:
                starts.append(j)
                break
    return starts


# ---------------------------------------------------------------------------
# chain layout: item sizes -> tick positions -> finish markers
# ---------------------------------------------------------------------------


class _ChainLayout:
    """Every tick position and finish marker of one pipeline chain."""

    __slots__ = ("total", "ownpos", "markers")

    def __init__(self, total: int, ownpos, markers) -> None:
        self.total = total
        #: per stage: ascending chain-relative positions of its own ticks
        self.ownpos: List[List[int]] = ownpos
        #: ``(position, stage_index, op)`` sorted; bottom-up within a tie,
        #: matching the interpreted cascade (a child's finish is recorded
        #: inside the parent's pull, before the parent's own finish)
        self.markers = markers


def _chain_layout(stages: List[_Stage]) -> _ChainLayout:
    use_np = _use_np()
    stage_count = len(stages)
    counts = [stage.batch.n for stage in stages]

    conses: List[object] = [None]
    for stage in stages[1:]:
        cons = stage.cons
        if use_np:
            cons = _np.asarray(cons, dtype=_np.int64)
        elif _is_np(cons):
            cons = cons.tolist()
        conses.append(cons)

    # Bottom-up: tsizes[s][i] = ticks item i of stage s contributes (its own
    # tick if a real output, plus every child tick its consumption covers).
    tsizes: List[object] = []
    csums: List[object] = []
    if use_np:
        t0 = _np.ones(counts[0] + 1, dtype=_np.int64)
        t0[counts[0]] = 0
    else:
        t0 = [1] * counts[0] + [0]
    tsizes.append(t0)
    for s in range(1, stage_count):
        child_csum = _excl_cumsum(tsizes[s - 1])
        csums.append(child_csum)
        cons = conses[s]
        n_s = counts[s]
        if use_np:
            previous = _np.concatenate(
                (_np.zeros(1, dtype=_np.int64), cons[:-1])
            )
            sizes = child_csum[cons] - child_csum[previous]
            sizes[:n_s] += 1
        else:
            sizes = []
            previous_cons = 0
            for i in range(n_s + 1):
                consumed = cons[i]
                sizes.append(
                    (1 if i < n_s else 0)
                    + child_csum[consumed]
                    - child_csum[previous_cons]
                )
                previous_cons = consumed
        tsizes.append(sizes)

    # Top-down: item start positions, then each stage's own tick positions.
    # ``pulled[s]`` = items of stage s its consumer actually pulled (the
    # sink always exhausts the top; a truncating LIMIT abandons below).
    starts: List[object] = [None] * stage_count
    pulled = [0] * stage_count
    top = stage_count - 1
    top_csum = _excl_cumsum(tsizes[top])
    starts[top] = top_csum
    pulled[top] = counts[top] + 1
    total = int(top_csum[counts[top] + 1])
    for s in range(top, 0, -1):
        cons = conses[s]
        child_csum = csums[s - 1]
        reach = int(cons[pulled[s] - 1])
        if use_np:
            items = _np.arange(reach, dtype=_np.int64)
            owner = _np.searchsorted(cons, items, side="right")
            previous = _np.concatenate(
                (_np.zeros(1, dtype=_np.int64), cons[:-1])
            )
            child_starts = (
                _np.asarray(starts[s])[owner]
                + child_csum[items]
                - child_csum[previous[owner]]
            )
        else:
            parent_starts = starts[s]
            child_starts = []
            for j in range(reach):
                owner = bisect.bisect_right(cons, j)
                before = cons[owner - 1] if owner else 0
                child_starts.append(
                    parent_starts[owner] + child_csum[j] - child_csum[before]
                )
        starts[s - 1] = child_starts
        pulled[s - 1] = reach

    ownpos: List[List[int]] = []
    markers = []
    for s, stage in enumerate(stages):
        n_s = counts[s]
        sizes = tsizes[s]
        stage_starts = starts[s]
        real = min(pulled[s], n_s)
        if use_np:
            # Stays an int64 array: the replay seeks into it with
            # searchsorted, so the n-element tolist would be pure waste.
            positions = stage_starts[:real] + sizes[:real] - 1
        else:
            positions = [
                stage_starts[i] + sizes[i] - 1 for i in range(real)
            ]
        ownpos.append(positions)
        if pulled[s] == n_s + 1:  # sentinel consumed -> the op finishes
            markers.append(
                (int(stage_starts[n_s] + sizes[n_s]), s, stage.op)
            )
    markers.sort(key=lambda marker: (marker[0], marker[1]))
    return _ChainLayout(total, ownpos, markers)


# ---------------------------------------------------------------------------
# sinks: what consumes a chain's top output
# ---------------------------------------------------------------------------


class _RootSink:
    """The driver: collects the plan's result rows."""

    def __init__(self) -> None:
        self.rows: List[Row] = []

    def prepare(self, batch: _Batch) -> None:
        pass

    def advance(self, consumed: int) -> None:
        pass

    def commit(self, batch: _Batch) -> None:
        self.rows = list(batch.rows())


class _JoinBuildSink:
    """A hash join's build phase: key the build rows for probing."""

    def __init__(self, runner: "_VecRunner", op: HashJoin) -> None:
        self.runner = runner
        self.op = op

    def prepare(self, batch: _Batch) -> None:
        pass

    def advance(self, consumed: int) -> None:
        pass

    def commit(self, batch: _Batch) -> None:
        op = self.op
        try:
            keys = evaluate(op.build_key, batch.schema, batch.cols, batch.n)
        except Unvectorizable:
            keys = [op._build_fn(row) for row in batch.rows()]
        self.runner._builds[op.operator_id] = (
            _KeyedLookup(keys, batch.n),
            batch,
        )
        # The dict the row engines fill (op._table) stays empty: nothing
        # observes it — progress state reads build_done, set here exactly
        # where the interpreted build loop sets it (after the build child's
        # finish event, so the boundary observer still saw False).
        op._built = True


class _BlockSink:
    """A blocking operator consuming its input pipeline.

    Commit materializes the operator's exact *observable* state: emitted
    rows bit-identical to the row engines' (Python semantics decide every
    order and every aggregate value) and the progress surface operators
    expose (``materialized_count``, ``groups_seen``).  Internal scratch the
    row engines would also fill — per-key accumulator contents, like a hash
    join's ``op._table`` — is not rebuilt; nothing observes it.  For hash
    aggregation the sink also tracks the build *during* replay: observers
    sampling mid-build read ``groups_seen()``, so each group's key is
    registered the moment its first row is consumed.
    """

    def __init__(self, op: Operator) -> None:
        self.op = op
        self._key_vcols: List[object] = []
        self._spec_vcols: List[Optional[object]] = []
        self._group_keys: List[Tuple[object, ...]] = []
        self._first_at: List[int] = []
        #: row indices with each group's rows contiguous in arrival order
        #: (None = input already clustered), plus the group extents over it
        self._order: Optional[object] = None
        self._bounds: List[int] = [0]
        self._sizes: List[int] = []
        self._inserted = 0
        self._placeholder: Optional[_Accumulator] = None
        self._emit: Optional[_Batch] = None

    def emitted_batch(self) -> Optional[_Batch]:
        """The operator's output as columns, when commit could build it."""
        return self._emit

    def prepare(self, batch: _Batch) -> None:
        op = self.op
        if type(op) is not HashAggregate:
            return
        self._spec_vcols = _spec_value_vcols(op, batch)
        n = batch.n
        if n == 0:
            return
        if not op.group_by:
            # Scalar aggregation: one group, keyed (), holding every row.
            self._group_keys = [()]
            self._first_at = [0]
            self._bounds = [0, n]
            self._sizes = [n]
            return
        self._key_vcols = _group_key_vcols(op, batch)
        clustered = _cluster_keys(self._key_vcols, n)
        if clustered is not None:
            firsts, order, sizes = clustered
            self._first_at = firsts.tolist()
            self._order = order
            self._sizes = sizes.tolist()
            bounds = [0]
            for size in self._sizes:
                bounds.append(bounds[-1] + size)
            self._bounds = bounds
            self._group_keys = list(
                zip(*[vcol[firsts].tolist() for vcol in self._key_vcols])
            )
            return
        keys = list(zip(*[tolist(vcol) for vcol in self._key_vcols]))
        group_of: Dict[Tuple[object, ...], int] = {}
        group_rows: List[List[int]] = []
        for j, key in enumerate(keys):
            group = group_of.get(key)
            if group is None:
                group = len(self._group_keys)
                group_of[key] = group
                self._group_keys.append(key)
                group_rows.append([])
                self._first_at.append(j)
            group_rows[group].append(j)
        self._order = [j for indices in group_rows for j in indices]
        self._sizes = [len(indices) for indices in group_rows]
        bounds = [0]
        for size in self._sizes:
            bounds.append(bounds[-1] + size)
        self._bounds = bounds

    def advance(self, consumed: int) -> None:
        op = self.op
        if type(op) is not HashAggregate:
            return
        first_at = self._first_at
        inserted = self._inserted
        if inserted >= len(first_at):
            return
        placeholder = self._placeholder
        if placeholder is None:
            placeholder = self._placeholder = _Accumulator(len(op.aggregates))
        groups = op._groups
        group_keys = self._group_keys
        while inserted < len(first_at) and first_at[inserted] < consumed:
            # One shared placeholder for every key: mid-build observers
            # only ever read len(op._groups) (like a hash join's op._table,
            # the per-key accumulators are never observed — the emitted
            # values come from the reduced columns at commit).
            groups[group_keys[inserted]] = placeholder
            inserted += 1
        self._inserted = inserted

    def commit(self, batch: _Batch) -> None:
        op = self.op
        kind = type(op)
        if kind is Sort:
            self._commit_sort(op, batch)
            return
        if kind is TopN:
            self._commit_topn(op, batch)
            return
        self._commit_hash_aggregate(op)

    def _commit_topn(self, op: TopN, batch: _Batch) -> None:
        functions = op._key_functions()
        limit = op.limit
        permutation = (
            self._sort_permutation(op, batch) if limit > 0 else None
        )
        if permutation is not None:
            # The insort loop keeps exactly the first ``limit`` rows of the
            # stable full order: a later tie never displaces an earlier one
            # (strict ``entry < buffer[-1]``), and the popped row among ties
            # is always the latest arrival (``insort_right``).  So the
            # buffer is the truncated stable sort, keys rebuilt row-wise.
            row_key = op._row_key
            top = _Batch(
                op.schema,
                [_defer(col, permutation[:limit]) for col in batch.cols],
                min(limit, batch.n),
            )
            self._emit = top
            op._buffer = [
                _OrderedRow(row_key(row, functions), row)
                for row in top.rows()
            ]
            return
        buffer: List[_OrderedRow] = []
        if limit > 0:
            for row in batch.rows():
                op._offer(buffer, functions, row)
        op._buffer = buffer

    def _commit_sort(self, op: Sort, batch: _Batch) -> None:
        permutation = self._sort_permutation(op, batch)
        if permutation is not None:
            emit = _Batch(
                op.schema,
                [_defer(col, permutation) for col in batch.cols],
                batch.n,
            )
            self._emit = emit
            op._rows = _SpoolRows(emit)
            return
        # Row path: some key has no NULL-free vectorized translation, so
        # ``sort_rows`` (which states the NULL order) must decide.
        op._rows = op._order(list(batch.rows()))

    @staticmethod
    def _sort_permutation(op, batch: _Batch):
        """A stable multi-key order over NULL-free array keys, else None.

        ``op`` is a :class:`Sort` or :class:`TopN` — both carry the same
        ``SortKey`` list and the same reversed-stable-sort row semantics.
        """
        key_arrays = []
        for key in op.keys:
            try:
                vcol = evaluate(
                    key.expression, batch.schema, batch.cols, batch.n
                )
            except Unvectorizable:
                return None
            if not _is_np(vcol):
                return None
            key_arrays.append((vcol, key.descending))
        permutation = _np.arange(batch.n, dtype=_np.int64)
        # Least- to most-significant key, exactly like the row path's
        # reversed stable-sort loop; NULL-free natural order is what
        # ``sort_rows`` degenerates to without NULLs.
        for vcol, descending in reversed(key_arrays):
            permutation = permutation[
                _stable_argsort(vcol[permutation], descending)
            ]
        return permutation

    def _commit_hash_aggregate(self, op: HashAggregate) -> None:
        spec_count = len(op.aggregates)
        group_count = len(self._group_keys)
        if group_count:
            order = self._order
            bounds = self._bounds
            sizes = self._sizes
            reduced = [
                None if vcol is None else _reduce_spec(vcol, order, bounds)
                for vcol in self._spec_vcols
            ]
            # Any group the replay's advance() did not reach yet (none, in
            # a fully drained chain) still gets its key registered: the
            # groups dict carries cardinality, nothing reads its values.
            self.advance(self._bounds[-1] + 1)
            emit_cols = [
                _gather(vcol, self._first_at) for vcol in self._key_vcols
            ]
            emit_cols += _finalized_spec_columns(op, sizes, reduced)
            self._emit = _Batch(op.schema, emit_cols, group_count)
        if not op.group_by and not op._groups:
            op._groups[()] = _Accumulator(spec_count)
        op._materialized = True
        emit_batch = self._emit

        def emitted_rows():
            if emit_batch is not None:
                yield from emit_batch.rows()
            else:
                for key, accumulator in op._groups.items():
                    yield op._emit(key, accumulator)

        op._output = emitted_rows()


# ---------------------------------------------------------------------------
# the vectorized pipeline runner
# ---------------------------------------------------------------------------


class _VecRunner:
    """Executes fully-supported subtrees as vectorized pipeline phases."""

    def __init__(self, monitor) -> None:
        self.monitor = monitor
        #: hash-join op id -> (lookup over build keys, build-side batch)
        self._builds: Dict[int, Tuple[_KeyedLookup, _Batch]] = {}

    # -- pipeline orchestration ------------------------------------------------

    def run_pipeline(self, top: Operator, sink) -> None:
        chain_ops: List[Operator] = []
        node = top
        while True:
            kind = type(node)
            if kind in (TableScan, RowSource) or kind in _BLOCKING_VEC_TYPES:
                source = node
                break
            if kind is Limit and node.limit == 0 and node.offset == 0:
                # LIMIT 0 never pulls its child: the subtree below runs no
                # build phase, ticks nothing, finishes nothing.
                source = node
                break
            chain_ops.append(node)
            node = node.right if kind is HashJoin else node.child

        # Phases, in the interpreted engine's descent order: each hash
        # join's build side first (topmost join first), then the blocking
        # source's own input pipeline.
        for op in chain_ops:
            if type(op) is HashJoin:
                self.run_pipeline(op.left, _JoinBuildSink(self, op))
        source_kind = type(source)
        if source_kind in _BLOCKING_VEC_TYPES:
            block_sink = _BlockSink(source)
            self.run_pipeline(source.child, block_sink)
            batch = block_sink.emitted_batch()
            if batch is None:
                batch = _rows_to_batch(
                    source.schema, self._emitted_rows(source)
                )
        elif source_kind is TableScan:
            batch = _Batch(
                source.schema, columns_for(source.table), len(source.table)
            )
        elif source_kind is RowSource:
            batch = _rows_to_batch(source.schema, source.rows)
        else:  # LIMIT 0: an empty source
            batch = _rows_to_batch(source.schema, [])

        stages = [_Stage(source, batch, None)]
        for op in reversed(chain_ops):
            stages.append(self._build_stage(op, stages[-1].batch))

        layout = _chain_layout(stages)
        sink.prepare(stages[-1].batch)
        self._replay(stages, layout, sink)
        sink.commit(stages[-1].batch)

    @staticmethod
    def _emitted_rows(op: Operator) -> List[Row]:
        """A materialized blocking operator's output rows, emission order."""
        if type(op) is Sort:
            return op._rows
        if type(op) is TopN:
            return [entry.row for entry in op._buffer]
        return [op._emit(key, acc) for key, acc in op._groups.items()]

    # -- the replay loop --------------------------------------------------------

    def _replay(self, stages: List[_Stage], layout: _ChainLayout, sink) -> None:
        monitor = self.monitor
        total = layout.total
        ownpos = layout.ownpos
        markers = layout.markers
        pointers = [0] * len(stages)
        processed = 0
        marker_index = 0
        top_positions = ownpos[-1]
        while True:
            if (
                marker_index < len(markers)
                and markers[marker_index][0] == processed
            ):
                # A finish fires during a pull that returned None: every
                # chain output emitted so far has been returned to the
                # sink's consumer, so forced observer rounds see them all.
                sink.advance(pointers[-1])
                while (
                    marker_index < len(markers)
                    and markers[marker_index][0] == processed
                ):
                    op = markers[marker_index][2]
                    op.finished = True
                    monitor.record_finish(op.operator_id)
                    marker_index += 1
            if processed >= total:
                break
            headroom = monitor.ticks_until_next_observer()
            target = (
                total if headroom is None else min(processed + headroom, total)
            )
            if marker_index < len(markers) and markers[marker_index][0] < target:
                target = markers[marker_index][0]
            # Observable state first: the record_batch that lands on a
            # cadence multiple fires observers, which must read the state
            # as of tick ``target`` — rows_produced, aggregate groups.
            deltas = []
            for s, stage in enumerate(stages):
                before = pointers[s]
                positions = ownpos[s]
                if _is_np(positions):
                    # target only grows, so the unbounded seek can never
                    # land before the previous pointer.
                    after = int(positions.searchsorted(target))
                else:
                    after = bisect.bisect_left(positions, target, before)
                if after != before:
                    pointers[s] = after
                    stage.op.rows_produced = after
                    deltas.append((stage.op.operator_id, after - before))
            # The output emitted at the window's final tick (if any) is
            # still mid-get_next when an observer fires on that tick: only
            # outputs at strictly earlier positions have been returned.
            if _is_np(top_positions):
                returned = min(
                    int(top_positions.searchsorted(target - 1)), pointers[-1]
                )
            else:
                returned = bisect.bisect_left(
                    top_positions, target - 1, 0, pointers[-1]
                )
            sink.advance(returned)
            for operator_id, count in deltas:
                monitor.record_batch(operator_id, count)
            processed = target

    # -- per-operator stages -----------------------------------------------------

    def _build_stage(self, op: Operator, child: _Batch) -> _Stage:
        kind = type(op)
        if kind is Filter:
            return self._filter_stage(op, child)
        if kind is Project:
            return self._project_stage(op, child)
        if kind is HashJoin:
            return self._hash_join_stage(op, child)
        if kind is IndexNestedLoopsJoin:
            return self._inl_stage(op, child)
        if kind is StreamAggregate:
            return self._stream_aggregate_stage(op, child)
        if kind is Limit:
            return self._limit_stage(op, child)
        return self._distinct_stage(op, child)

    def _filter_stage(self, op: Filter, child: _Batch) -> _Stage:
        n = child.n
        try:
            mask = truth_mask(
                evaluate(op.predicate, child.schema, child.cols, n), n
            )
        except Unvectorizable:
            predicate = op._bound
            mask = [predicate(row) is True for row in child.rows()]
        kept = _mask_indices(mask)
        cols = [_defer(col, kept) for col in child.cols]
        return _Stage(
            op,
            _Batch(op.schema, cols, len(kept)),
            _cons_from_indices(kept, n + 1),
        )

    def _project_stage(self, op: Project, child: _Batch) -> _Stage:
        n = child.n
        cols = []
        try:
            for _, expression in op.outputs:
                cols.append(evaluate(expression, child.schema, child.cols, n))
            batch = _Batch(op.schema, cols, n)
        except Unvectorizable:
            project = op._project
            batch = _rows_to_batch(
                op.schema, [project(row) for row in child.rows()]
            )
        if _use_np():
            cons = _np.arange(1, n + 2, dtype=_np.int64)
            cons[n] = n + 1
        else:
            cons = list(range(1, n + 2))
            cons[n] = n + 1
        return _Stage(op, batch, cons)

    def _join_output(
        self, op, child: _Batch, out_idx, positions, side_batch_cols, outer_first
    ):
        """Joined columns + residual filtering shared by ⋈hash and ⋈INL."""
        matched_side = [_defer(col, positions) for col in side_batch_cols]
        outer_side = [_defer(col, out_idx) for col in child.cols]
        if outer_first:
            cols = outer_side + matched_side
        else:
            cols = matched_side + outer_side
        count = len(out_idx)
        if op.residual is not None and count:
            joined = _Batch(op.schema, cols, count)
            try:
                mask = truth_mask(
                    evaluate(op.residual, op.schema, joined.cols, count),
                    count,
                )
            except Unvectorizable:
                residual = op._residual_fn
                mask = [residual(row) is True for row in joined.rows()]
            kept = _mask_indices(mask)
            out_idx = _gather(out_idx, kept)
            cols = [_defer(col, kept) for col in joined.cols]
            count = len(kept)
        return out_idx, cols, count

    def _hash_join_stage(self, op: HashJoin, child: _Batch) -> _Stage:
        lookup, build_batch = self._builds[op.operator_id]
        n_probe = child.n
        try:
            keys = evaluate(op.probe_key, child.schema, child.cols, n_probe)
        except Unvectorizable:
            probe_fn = op._probe_fn
            keys = [probe_fn(row) for row in child.rows()]
        probe_idx, positions = lookup.probe(keys, n_probe)
        probe_idx, cols, count = self._join_output(
            op, child, probe_idx, positions, build_batch.cols, False
        )
        if op.preserve_probe:
            probe_idx, cols, count = self._preserve_pads(
                op, child, probe_idx, cols, count
            )
        return _Stage(
            op,
            _Batch(op.schema, cols, count),
            _cons_from_indices(probe_idx, n_probe + 1),
        )

    def _preserve_pads(self, op: HashJoin, child: _Batch, probe_idx, cols, count):
        """Probe-preserving outer join: pad matchless probes with NULLs."""
        n_probe = child.n
        build_width = len(op._null_pad)
        if _is_np(probe_idx):
            emitted = _np.bincount(probe_idx, minlength=n_probe)
            pads = _np.flatnonzero(emitted == 0)
            if not len(pads):
                return probe_idx, cols, count
            merged_idx = _np.concatenate((probe_idx, pads))
            order = _np.argsort(merged_idx, kind="stable")
        else:
            emitted = [0] * n_probe
            for j in probe_idx:
                emitted[j] += 1
            pads = [j for j in range(n_probe) if not emitted[j]]
            if not pads:
                return probe_idx, cols, count
            merged_idx = list(probe_idx) + pads
            order = sorted(range(len(merged_idx)), key=merged_idx.__getitem__)
        pad_count = len(pads)
        out_cols = []
        for position, col in enumerate(cols):
            if position < build_width:
                values = tolist(_resolve(col)) + [None] * pad_count
                out_cols.append(_gather(values, order))
            else:
                source = child.cols[position - build_width]
                out_cols.append(_gather(source, _gather(merged_idx, order)))
        return (
            _gather(merged_idx, order),
            out_cols,
            count + pad_count,
        )

    def _inl_stage(self, op: IndexNestedLoopsJoin, child: _Batch) -> _Stage:
        lookup, inner_cols = _index_lookup(op.index)
        n_outer = child.n
        try:
            keys = evaluate(op.outer_key, child.schema, child.cols, n_outer)
        except Unvectorizable:
            key_fn = op._key_fn
            keys = [key_fn(row) for row in child.rows()]
        outer_idx, positions = lookup.probe(keys, n_outer)
        outer_idx, cols, count = self._join_output(
            op, child, outer_idx, positions, inner_cols, True
        )
        return _Stage(
            op,
            _Batch(op.schema, cols, count),
            _cons_from_indices(outer_idx, n_outer + 1),
        )

    def _stream_aggregate_stage(
        self, op: StreamAggregate, child: _Batch
    ) -> _Stage:
        n = child.n
        spec_count = len(op.aggregates)
        if n == 0:
            if op.group_by:
                return _Stage(op, _rows_to_batch(op.schema, []), [1])
            row = op._emit((), _Accumulator(spec_count))
            return _Stage(op, _rows_to_batch(op.schema, [row]), [1, 1])
        if op.group_by:
            key_vcols = _group_key_vcols(op, child)
            starts = _run_starts(key_vcols, n)
        else:
            key_vcols = []
            starts = [0]
        bounds = starts + [n]
        group_count = len(starts)
        sizes = [bounds[g + 1] - bounds[g] for g in range(group_count)]
        reduced = [
            None if vcol is None else _reduce_spec(vcol, None, bounds)
            for vcol in _spec_value_vcols(op, child)
        ]
        cols = [_gather(vcol, starts) for vcol in key_vcols]
        cols += _finalized_spec_columns(op, sizes, reduced)
        # Emitting a group consumes through the next group's first row
        # (the lookahead); the last group drains the child's sentinel.
        cons = [
            bounds[g + 1] + 1 if g < group_count - 1 else n + 1
            for g in range(group_count)
        ]
        cons.append(n + 1)
        return _Stage(op, _Batch(op.schema, cols, group_count), cons)

    def _limit_stage(self, op: Limit, child: _Batch) -> _Stage:
        n = child.n
        first = min(op.offset, n)
        last = min(n, op.offset + op.limit)
        taken = max(0, last - first)
        cols = [_slice_col(col, first, last) for col in child.cols]
        if _use_np():
            cons = _np.arange(
                first + 1, first + taken + 2, dtype=_np.int64
            )
        else:
            cons = list(range(first + 1, first + taken + 2))
        # The sentinel: the child's own sentinel is consumed only when the
        # child ran out before the limit was filled; otherwise the child is
        # abandoned mid-stream (and therefore never finishes).
        cons[taken] = n + 1 if n < op.offset + op.limit else op.offset + op.limit
        return _Stage(op, _Batch(op.schema, cols, taken), cons)

    def _distinct_stage(self, op: Distinct, child: _Batch) -> _Stage:
        # Every column is part of the distinctness key: resolve by indexed
        # access (caching into the batch) before clustering.
        resolved = [child.cols[i] for i in range(len(child.cols))]
        clustered = _cluster_keys(resolved, child.n)
        if clustered is not None:
            # First occurrence of each distinct tuple, already ascending
            # (clusters are ordered by first arrival).
            kept = clustered[0]
        else:
            seen = set()
            kept = []
            for j, row in enumerate(child.rows()):
                if row not in seen:
                    seen.add(row)
                    kept.append(j)
            if _use_np():
                kept = _np.asarray(kept, dtype=_np.int64)
        cols = [_defer(col, kept) for col in child.cols]
        return _Stage(
            op,
            _Batch(op.schema, cols, len(kept)),
            _cons_from_indices(kept, child.n + 1),
        )


# ---------------------------------------------------------------------------
# fallback compiler: vector islands inside a fused program
# ---------------------------------------------------------------------------


class _ColumnarCompiler(_Compiler):
    """The fused compiler, with vectorized blocking islands.

    A Sort/TopN/HashAggregate whose whole subtree is vectorizable runs its
    build as columnar pipeline phases, then emits rows fused-style; every
    other operator compiles exactly as the fused engine would.  This is the
    per-subtree fallback: plans with merge joins, plain nested loops or
    UNION ALL still vectorize the supported islands under them.
    """

    def __init__(self, monitor) -> None:
        super().__init__(monitor)
        self._vec = _VecRunner(monitor)

    def _source(self, op: Operator) -> Optional[_Node]:
        if type(op) in _BLOCKING_VEC_TYPES and _vec_supported(op):
            return self._compile_vec_island(op)
        return super()._source(op)

    def _compile_vec_island(self, op: Operator) -> _Node:
        acct = self.acct
        cell = acct.cell(op)
        budget = acct.budget
        flush = acct.flush
        vec = self._vec
        kind = type(op)

        def materialized() -> bool:
            if kind is Sort:
                return op._rows is not None
            if kind is TopN:
                return op._buffer is not None
            return op._output is not None

        emitted_cache: List[List[Row]] = []

        def make():
            if not materialized():
                # Ticks pending from enclosing fused generators must land
                # before the island's phases tick the monitor.
                flush()
                sink = _BlockSink(op)
                vec.run_pipeline(op.child, sink)
                emit_batch = sink.emitted_batch()
                emitted_cache[:] = [
                    emit_batch.rows() if emit_batch is not None
                    else _VecRunner._emitted_rows(op)
                ]
                acct.reset_budget()
            elif not emitted_cache:
                emitted_cache.append(_VecRunner._emitted_rows(op))
            for row in emitted_cache[0]:
                op.rows_produced += 1
                cell[0] += 1
                budget[0] -= 1
                if budget[0] <= 0:
                    flush()
                yield row
            acct.finish(op)

        return _Node(op, make, "vector island")


def run_columnar(
    root: Operator, context: Optional[ExecutionContext] = None
) -> List[Row]:
    """Open ``root``, execute it through the columnar engine, close it.

    Tick-for-tick equivalent to ``root.run(context)`` and to
    :func:`repro.engine.compiled.run_fused`: same rows in the same order,
    same per-operator counts, same observer firing instants, same
    finish/rewind event stream (tick events coalesced per replay window on
    the batch-listener channel).
    """
    context = context or ExecutionContext()
    monitor = context.monitor
    root.open(context)
    try:
        if _vec_supported(root):
            runner = _VecRunner(monitor)
            sink = _RootSink()
            runner.run_pipeline(root, sink)
            return sink.rows
        return _ColumnarCompiler(monitor).run(root)
    finally:
        root.close()
