"""Property tests of the two ordering kernels: ``sort_rows`` and ``TopN._offer``.

``sort_rows`` replaced three copies of ``rows.sort(key=lambda r:
_null_first_key(k(r)), reverse=d)``; it must return *the same row objects in
the same order* (stability included), only without a key tuple per row.
``TopN`` must return what ``Sort`` + ``Limit`` returns, however many rows
its first-key fast reject turns away.
"""

from operator import itemgetter

from hypothesis import given, settings, strategies as st

from repro.engine.executor import ENGINES, execute
from repro.engine.expressions import col
from repro.engine.operators import Limit, RowSource, Sort, SortKey, TopN
from repro.engine.operators.sort import _null_first_key, sort_rows
from repro.engine.plan import Plan
from repro.storage.schema import Column, ColumnType, Schema

#: one column is one type (the engine never compares across types), with
#: NULLs and — small domains — plenty of duplicates
COLUMN_VALUES = {
    ColumnType.INT: st.integers(-3, 3),
    ColumnType.FLOAT: st.one_of(
        st.sampled_from([-1.5, 0.0, -0.0, 2.5, float("inf")]),
        st.floats(allow_nan=True, width=16),
    ),
    ColumnType.STR: st.sampled_from(["", "a", "ab", "b", "B"]),
    ColumnType.BOOL: st.booleans(),
}


@st.composite
def tables(draw, max_keys=3, allow_nan=True):
    """(column types, rows): ``rows[i][-1] == i``, so rows are all distinct."""
    types = draw(st.lists(
        st.sampled_from(sorted(COLUMN_VALUES, key=lambda t: t.value)),
        min_size=1, max_size=max_keys,
    ))
    null_share = draw(st.sampled_from([0, 0, 3, 1]))  # 1: (nearly) all NULL

    def column(column_type):
        values = COLUMN_VALUES[column_type]
        if not allow_nan and column_type is ColumnType.FLOAT:
            values = values.filter(lambda v: v == v)
        if null_share == 1:
            return st.one_of(st.none(), st.none(), st.none(), values)
        return st.one_of(st.none(), values) if null_share else values

    n = draw(st.integers(0, 40))
    columns = [draw(st.lists(column(t), min_size=n, max_size=n)) for t in types]
    return types, [tuple(c[i] for c in columns) + (i,) for i in range(n)]


def _is_nan(value):
    return value != value


def _same_objects(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


@settings(max_examples=300, deadline=None)
@given(tables(), st.data())
def test_sort_rows_is_the_null_first_key_sort_without_the_tuples(table, data):
    types, rows = table
    # several keys, mixed directions, least significant first
    order = data.draw(st.permutations(range(len(types))))
    got, want = list(rows), list(rows)
    for position in order:
        descending = data.draw(st.booleans())
        key = itemgetter(position)
        column = [key(row) for row in want]
        before = list(want)
        want = sorted(
            want, key=lambda r: _null_first_key(key(r)), reverse=descending
        )
        if any(map(_is_nan, column)) and None in column:
            # `<` is not an order on this column: both forms return what
            # timsort makes of the comparisons it happens to ask for, and
            # those differ once the NULLs are out of the list.  What holds
            # is the NULL placement, in arrival order, around a permutation.
            got = sort_rows(list(before), key, descending)
            nulls = [row for row in before if key(row) is None]
            block = got[len(got) - len(nulls):] if descending else got[:len(nulls)]
            assert _same_objects(block, nulls)
            assert sorted(map(id, got)) == sorted(map(id, before))
            want = got
            continue
        got = sort_rows(got, key, descending)
        assert _same_objects(got, want), (position, descending)


@settings(max_examples=100, deadline=None)
@given(tables(max_keys=1), st.booleans())
def test_sort_rows_takes_any_key_callable(table, descending):
    """The generated code passes a lambda over the inlined expression."""
    _, rows = table
    got = sort_rows(list(rows), lambda row: row[0], descending)
    assert _same_objects(got, sort_rows(list(rows), itemgetter(0), descending))


def _schema(types):
    return Schema.of("t", [
        Column("c%d" % i, t, nullable=True) for i, t in enumerate(types)
    ] + [Column("i", ColumnType.INT)])


@settings(max_examples=200, deadline=None)
@given(tables(allow_nan=False), st.data())
def test_topn_equals_sort_plus_limit(table, data):
    """Limits 0, 1, n and beyond; ties on the first key must survive the
    fast reject (it is strict) and be broken by the later keys, then by
    arrival; all-NULL keys never reach a comparison of values."""
    types, rows = table
    schema = _schema(types)
    keys = [
        SortKey(col("c%d" % i), data.draw(st.booleans()))
        for i in data.draw(st.permutations(range(len(types))))
    ]
    n = len(rows)
    limit = data.draw(st.sampled_from(sorted({0, 1, 2, n // 2, n, n + 3})))
    want = execute(
        Plan(Limit(Sort(RowSource(schema, rows), keys), limit), "sort-limit"),
        engine="interpreted",
    ).rows
    for engine in ENGINES:
        got = execute(
            Plan(TopN(RowSource(schema, rows), keys, limit), "topn"), engine=engine
        ).rows
        assert got == want, (engine, limit)


@settings(max_examples=100, deadline=None)
@given(tables(allow_nan=False), st.data())
def test_sort_is_the_same_list_under_every_engine(table, data):
    """No ``nan`` here: where ``<`` is no order the engines' contract ends
    (NumPy's argsort puts ``nan`` last, timsort leaves it where it meets it
    — so on the parent of this change too)."""
    types, rows = table
    schema = _schema(types)
    keys = [
        SortKey(col("c%d" % i), data.draw(st.booleans()))
        for i in data.draw(st.permutations(range(len(types))))
    ]
    results = [
        execute(Plan(Sort(RowSource(schema, rows), keys), "sort"), engine=engine).rows
        for engine in ENGINES
    ]
    # the columnar engine rebuilds its rows from columns: compare values
    # and their types (the last column is the arrival number)
    for got in results[1:]:
        assert got == results[0]
        assert all(
            type(a) is type(b)
            for row, reference in zip(got, results[0])
            for a, b in zip(row, reference)
        )
