"""Property-based expression tests: random trees vs direct Python evaluation.

A random expression tree is generated together with a reference lambda; the
bound evaluator must agree on every row, including NULL propagation.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.expressions import (
    And,
    Arithmetic,
    Between,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    col,
    lit,
)
from repro.storage import schema_of

SCHEMA = schema_of("t", "a:int", "b:int")

row_values = st.one_of(st.integers(-4, 4), st.none())
rows = st.tuples(row_values, row_values)


def sql_not(value):
    return None if value is None else not value


def sql_and(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def sql_or(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def sql_compare(op, a, b):
    if a is None or b is None:
        return None
    return {"=": a == b, "<>": a != b, "<": a < b, "<=": a <= b,
            ">": a > b, ">=": a >= b}[op]


@st.composite
def expressions(draw, depth=0):
    """Returns (Expression, reference_fn(row) -> bool/None)."""
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.sampled_from(
            ["compare_const", "compare_cols", "between", "in", "isnull"]
        ))
        if kind == "compare_const":
            op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
            constant = draw(st.integers(-4, 4))
            column = draw(st.sampled_from([0, 1]))
            expr = Comparison(op, col("ab"[column]), lit(constant))
            return expr, (lambda row, op=op, c=constant, i=column:
                          sql_compare(op, row[i], c))
        if kind == "compare_cols":
            op = draw(st.sampled_from(["=", "<", ">"]))
            expr = Comparison(op, col("a"), col("b"))
            return expr, (lambda row, op=op: sql_compare(op, row[0], row[1]))
        if kind == "between":
            low = draw(st.integers(-4, 2))
            high = draw(st.integers(low, 4))
            expr = Between(col("a"), lit(low), lit(high))
            return expr, (lambda row, lo=low, hi=high:
                          None if row[0] is None else lo <= row[0] <= hi)
        if kind == "in":
            allowed = draw(st.lists(st.integers(-4, 4), min_size=1,
                                    max_size=4))
            expr = InList(col("b"), allowed)
            return expr, (lambda row, vals=tuple(allowed):
                          None if row[1] is None else row[1] in vals)
        expr = IsNull(col("a"))
        return expr, (lambda row: row[0] is None)

    kind = draw(st.sampled_from(["and", "or", "not"]))
    left, left_fn = draw(expressions(depth=depth + 1))
    if kind == "not":
        return Not(left), (lambda row, f=left_fn: sql_not(f(row)))
    right, right_fn = draw(expressions(depth=depth + 1))
    if kind == "and":
        return And(left, right), (
            lambda row, f=left_fn, g=right_fn: sql_and(f(row), g(row)))
    return Or(left, right), (
        lambda row, f=left_fn, g=right_fn: sql_or(f(row), g(row)))


@settings(max_examples=200, deadline=None)
@given(expressions(), rows)
def test_random_boolean_trees_match_reference(pair, row):
    expression, reference = pair
    bound = expression.bind(SCHEMA)
    assert bound(row) == reference(row)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["+", "-", "*"]), rows)
def test_arithmetic_null_propagation(op, row):
    expression = Arithmetic(op, col("a"), col("b"))
    result = expression.bind(SCHEMA)(row)
    if row[0] is None or row[1] is None:
        assert result is None
    else:
        expected = {"+": row[0] + row[1], "-": row[0] - row[1],
                    "*": row[0] * row[1]}[op]
        assert result == expected


@settings(max_examples=100, deadline=None)
@given(expressions(), rows)
def test_filter_semantics_keep_only_true(pair, row):
    """A Filter keeps a row iff the reference evaluates to exactly True."""
    from repro.engine.operators import ExecutionContext, Filter, RowSource

    expression, reference = pair
    source = RowSource(SCHEMA, [row])
    out = Filter(source, expression).run(ExecutionContext())
    assert (out == [row]) == (reference(row) is True)


# -- the inlined source (fused engine) against bind() (interpreter) --------------------
#
# The fused engine does not call an expression's bound closure: it inlines
# ``repro.engine.expressions.to_source``'s text into its generated loops —
# as a value under π and γ, as a rejection test under σ.  Both forms are
# driven here the way they run, through ``execute``, over random trees of
# every node kind, rows of mixed types and NULLs, zero divisors and empty IN
# lists.  Same value (compared by ``repr``: 1, 1.0 and True differ, NaN
# equals itself) *or the same exception type* on every row.

from repro.engine.executor import execute  # noqa: E402
from repro.engine.expressions import Case, Expression, Like  # noqa: E402
from repro.engine.operators import (  # noqa: E402
    Filter,
    HashAggregate,
    Project,
    RowSource,
    agg_avg,
    agg_sum,
)
from repro.engine.plan import Plan  # noqa: E402

WIDE = schema_of("t", "a:int", "b:float", "c:str", "d:int")
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([0.0, -1.5, 2.0, 0.5]), st.sampled_from(["", "a", "ab%"]),
)
wide_rows = st.lists(st.tuples(scalars, scalars, scalars, scalars),
                     min_size=1, max_size=4)
columns = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def any_expression(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(columns.map(col), scalars.map(lit)))
    sub = any_expression(depth=depth + 1)
    kind = draw(st.sampled_from([
        "compare", "arith", "and", "or", "not", "isnull", "between", "in",
        "like", "case",
    ]))
    if kind == "compare":
        return Comparison(
            draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="])),
            draw(sub), draw(sub),
        )
    if kind == "arith":
        return Arithmetic(
            draw(st.sampled_from(["+", "-", "*", "/", "%"])),
            draw(sub), draw(sub),
        )
    if kind in ("and", "or"):
        operands = draw(st.lists(sub, min_size=2, max_size=5))
        return (And if kind == "and" else Or)(*operands)
    if kind == "not":
        return Not(draw(sub))
    if kind == "isnull":
        return IsNull(draw(sub), negated=draw(st.booleans()))
    if kind == "between":
        return Between(draw(sub), draw(sub), draw(sub))
    if kind == "in":
        return InList(draw(sub), draw(st.lists(scalars, max_size=3)))
    if kind == "like":
        return Like(draw(sub), draw(st.sampled_from(["a%", "%", "_b\\%", ""])))
    return Case(
        draw(st.lists(st.tuples(sub, sub), min_size=1, max_size=3)),
        draw(st.one_of(st.none(), sub)),
    )


def outcome(make_plan, engine):
    try:
        return repr(execute(make_plan(), engine=engine).rows)
    except Exception as error:  # noqa: BLE001 — the type is the outcome
        return type(error)


@settings(max_examples=300, deadline=None)
@given(any_expression(), wide_rows)
def test_inlined_value_equals_bind(expression, data):
    def plan():
        return Plan(Project(RowSource(WIDE, data), [("v", expression)]))

    assert outcome(plan, "fused") == outcome(plan, "interpreted")


@settings(max_examples=300, deadline=None)
@given(any_expression(), wide_rows)
def test_inlined_rejection_equals_bind(expression, data):
    def plan():
        return Plan(Filter(RowSource(WIDE, data), expression))

    assert outcome(plan, "fused") == outcome(plan, "interpreted")


class Counted(Expression):
    """A user-defined node: no source emitter, and it counts its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def bind(self, schema):
        bound = self.inner.bind(schema)

        def evaluate(row):
            self.calls += 1
            return bound(row)

        return evaluate

    def references(self):
        return self.inner.references()


def test_a_node_without_an_emitter_is_called_through_its_closure():
    data = [(1, 0.5, "a", None), (None, 2.0, "b", 3), (3, None, "c", 1)]
    calls = {}
    for engine in ("interpreted", "fused"):
        counted = Counted(col("b") > lit(0.0))
        predicate = And(col("a") >= lit(1), counted, IsNull(col("c"), True))
        result = execute(
            Plan(Filter(RowSource(WIDE, data), predicate)), engine=engine
        )
        assert result.rows == [data[0]]
        calls[engine] = counted.calls
    # every row reaches it: a NULL first operand does not short-circuit AND
    assert calls == {"interpreted": 3, "fused": 3}


def test_shared_argument_nodes_are_found_by_identity_not_by_shape():
    data = [(i, 1.0, "g", i % 2) for i in range(6)]

    def run(first, second):
        plan = Plan(HashAggregate(
            RowSource(WIDE, data), [("d", col("d"))],
            [agg_sum(first, "s"), agg_avg(second, "m")],
        ))
        return execute(plan, engine="fused").rows

    shared = Counted(col("a") * lit(2))
    rows = run(shared, shared)
    assert shared.calls == len(data)  # one node object: once per row
    left, right = Counted(col("a") * lit(2)), Counted(col("a") * lit(2))
    assert run(left, right) == rows
    # equal shape, two objects (q1 builds _revenue() twice): not merged
    assert (left.calls, right.calls) == (len(data), len(data))
