"""Aggregation agrees on every engine, value for value and tick for tick.

Hash-γ and stream-γ (over sorted input) run on random tables through the
interpreter, the fused engine and the columnar engine, at observer cadences
1, 2 and 1000.  Rows are compared by ``repr``, so ``1``, ``1.0`` and
``-0.0`` stay distinct and a NaN equals a NaN; the totals, every operator's
``rows_produced`` and the ``groups_seen()`` of every hash-γ at every
observer instant must match the interpreter's too.  The inputs cover
NULLs, ints and floats in one column, ``-0.0`` as a group's first value,
NaN, bools in a numeric column, strings for MIN/MAX, NULL and multi-column
keys, empty input with and without GROUP BY, and a hash-γ rewound as the
inner of a ⋈NL.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.engine.executor import execute
from repro.engine.expressions import col, lit
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import (
    ExecutionContext,
    Filter,
    HashAggregate,
    NestedLoopsJoin,
    Sort,
    SortKey,
    StreamAggregate,
    TableScan,
    agg_avg,
    agg_max,
    agg_min,
    agg_sum,
    count,
    count_star,
)
from repro.engine.plan import Plan
from repro.storage import Table, schema_of

ENGINES = ("interpreted", "fused", "columnar")
CADENCES = (1, 2, 1000)

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -2.25, math.nan, 1e16]),
    st.floats(-100, 100, allow_nan=False, width=16),
)
#: a numeric column: one draw picks how mixed it is, so the exact-typed
#: array kernels and the list kernels both get inputs
_NUMBERS = st.sampled_from(["float", "int", "mixed"]).flatmap(lambda shape: {
    "float": _FLOATS,
    "int": st.integers(-5, 5),
    "mixed": st.one_of(
        st.none(), _FLOATS, st.integers(-5, 5), st.booleans(),
    ),
}[shape])
_ROWS = st.integers(0, 24).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=n, max_size=n),
    st.lists(st.one_of(st.none(), st.sampled_from("ab")), min_size=n, max_size=n),
    st.lists(_NUMBERS, min_size=n, max_size=n),
    st.lists(st.one_of(st.none(), st.sampled_from(["x", "yy", "", "Z"])),
             min_size=n, max_size=n),
).map(lambda columns: list(zip(*columns))))


def _table(rows) -> Table:
    schema = schema_of("t", "k:int", "j:str", "v:float", "s:str")
    return Table("t", schema, rows, validate=False)


def _specs():
    """Every kind, two specs sharing one argument object, a computed one."""
    v = col("v")
    return [
        count_star("n"), count(v, "c"), agg_sum(v, "sum"), agg_avg(v, "avg"),
        agg_min(v, "lo"), agg_max(v, "hi"), agg_min(col("s"), "slo"),
        agg_max(col("s"), "shi"), count(col("s"), "sc"),
        agg_sum(col("k") + lit(1), "k1"), agg_avg(col("k"), "kavg"),
    ]


def _plans(rows, keys):
    """Builders of every aggregate shape over one table."""
    table = _table(rows)
    group_by = [(name, col(name)) for name in keys]

    def hashed():
        return Plan(HashAggregate(TableScan(table), group_by, _specs()))

    def streamed():
        child = TableScan(table)
        if keys:
            child = Sort(child, [SortKey(col(name)) for name in keys])
        return Plan(StreamAggregate(child, group_by, _specs()))

    def emptied():
        # Empty input whatever was drawn: one row without GROUP BY, none with.
        child = Filter(TableScan(table), col("k") > lit(99))
        return Plan(HashAggregate(child, group_by, _specs()))

    def rewound():
        # The hash-γ is the ⋈NL inner: built once, emitted once per outer row.
        outer = TableScan(Table("o", schema_of("o", "x:int"), [(1,), (2,), (3,)]))
        inner = HashAggregate(
            TableScan(table), group_by, [count_star("n"), agg_sum(col("v"), "s")]
        )
        return Plan(NestedLoopsJoin(outer, inner))

    return hashed, streamed, emptied, rewound


def _story(build, engine, every):
    plan = build()
    operators = list(plan.operators())
    hashes = [op for op in operators if isinstance(op, HashAggregate)]
    monitor = ExecutionMonitor()
    instants = []
    monitor.add_observer(lambda m: instants.append((
        m.total_ticks, tuple(op.groups_seen() for op in hashes),
    )), every=every)
    try:
        rows = execute(plan, ExecutionContext(monitor), engine=engine).rows
    except TypeError as error:
        # AVG over a group holding only bools: a sum of nothing over a
        # count of one, the same TypeError everywhere.
        return {"raises": type(error)}
    return {
        "rows": repr(rows),
        "total": monitor.total_ticks,
        "produced": [op.rows_produced for op in operators],
        "instants": instants,
    }


def _assert_same_everywhere(build):
    for every in CADENCES:
        reference = _story(build, "interpreted", every)
        for engine in ENGINES[1:]:
            assert _story(build, engine, every) == reference, (engine, every)


@settings(max_examples=60, deadline=None)
@given(rows=_ROWS, keys=st.sampled_from([(), ("k",), ("k", "j"), ("j", "k")]))
def test_every_engine_tells_the_same_story(rows, keys):
    for build in _plans(rows, keys):
        _assert_same_everywhere(build)


def test_first_value_kinds_survive_the_fold():
    """The pinned cases: an int sum stays an int, ``-0.0`` first stays
    ``-0.0``, a NaN first is kept by MIN/MAX, a bool is counted not summed."""
    rows = [
        (1, "a", -0.0, "x"), (1, "a", 0.0, "y"),
        (2, "a", 3, None), (2, "b", 4, "x"),
        (3, None, math.nan, "z"), (3, None, 1.0, None),
        (None, "a", True, ""), (None, "a", 2.5, "Z"),
        (4, "b", -0.0, None),
    ]
    build = _plans(rows, ("k",))[0]
    _assert_same_everywhere(build)
    out = {row[0]: row[1:9] for row in execute(build(), engine="fused").rows}
    assert repr(out[1]) == repr((2, 2, 0.0, 0.0, -0.0, -0.0, "x", "y"))
    assert repr(out[4][:6]) == repr((1, 1, -0.0, -0.0, -0.0, -0.0))
    assert repr(out[2]) == repr((2, 2, 7, 3.5, 3, 4, "x", "x"))
    assert repr(out[3][:6]) == repr((2, 2, math.nan, math.nan, math.nan, math.nan))
    assert repr(out[None][:6]) == repr((2, 2, 2.5, 1.25, True, 2.5))


# -- what a run costs besides its ticks --------------------------------------------


def test_the_finalize_is_part_of_the_generated_program(tpch_db):
    from repro.engine.compiled import generated_source
    from repro.workloads.tpch import build_query

    text = generated_source(build_query(tpch_db, 1))
    # q1's three AVGs are divisions inside the program, groups are list
    # literals updated by constant index; no per-group method call is left
    assert text.count(" == 0 else ") == 3
    assert "_emit" not in text and "_Accumulator" not in text
    assert "._groups.items()]" in text and "= [None, None" in text


def test_a_warm_plan_compiles_nothing(tpch_db):
    from repro.engine import compiled
    from repro.engine.operators import aggregate
    from repro.workloads.tpch import build_query

    for engine in ENGINES:
        for number in (1, 18):
            execute(build_query(tpch_db, number), engine=engine)
            programs, kernels = len(compiled._CODE), len(aggregate._KERNELS)
            execute(build_query(tpch_db, number), engine=engine)
            assert (len(compiled._CODE), len(aggregate._KERNELS)) == (
                programs, kernels
            ), (engine, number)


def test_the_engine_never_calls_eval():
    import pathlib

    import repro.engine

    root = pathlib.Path(repro.engine.__file__).parent
    offenders = [
        str(path.relative_to(root)) for path in sorted(root.rglob("*.py"))
        if "eval(" in path.read_text()
    ]
    assert offenders == []
