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


# -- an independent reference: a plain recursive evaluator -----------------------------
#
# Written from SQL's three-valued logic, node by node, not from the text the
# engines run: NULL propagates through comparison, arithmetic, BETWEEN, IN
# and LIKE; division or modulo by zero is NULL; AND/OR/NOT are Kleene logic
# over identity tests (``is False`` / ``is True``: a non-boolean operand is
# neither); both operands of a binary node are evaluated before the NULL
# test, and a literal NULL operand (or BETWEEN bound) makes the node NULL
# without evaluating the rest; IN tests membership in its literal list (a
# NULL in the list matches nothing); LIKE matches the node's regex; CASE
# takes the first branch whose condition is exactly TRUE.

import operator  # noqa: E402

from repro.engine import compiled  # noqa: E402
from repro.engine import expressions as expression_module  # noqa: E402
from repro.engine.expressions import ColumnRef, Literal  # noqa: E402
from repro.errors import ExpressionError  # noqa: E402

COMPARE = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "%": operator.mod}


def _null_literal(node):
    return isinstance(node, Literal) and node.value is None


def reference(node, row, schema=WIDE):
    kind = type(node)
    if kind is Literal:
        return node.value
    if kind is ColumnRef:
        return row[schema.index_of(node.name)]
    if kind in (Comparison, Arithmetic):
        if _null_literal(node.left) or _null_literal(node.right):
            return None
        a = reference(node.left, row, schema)
        b = reference(node.right, row, schema)
        if a is None or b is None:
            return None
        if kind is Comparison:
            return COMPARE[node.op](a, b)
        if node.op in ("/", "%") and b == 0:
            return None
        return ARITHMETIC[node.op](a, b)
    if kind in (And, Or):
        decisive = kind is Or
        saw_null = False
        for operand in node.operands:
            value = reference(operand, row, schema)
            if value is decisive:
                return decisive
            if value is None:
                saw_null = True
        return None if saw_null else not decisive
    if kind is Not:
        value = reference(node.operand, row, schema)
        return None if value is None else not value
    if kind is IsNull:
        value = reference(node.operand, row, schema)
        return (value is not None) if node.negated else (value is None)
    if kind is Between:
        if isinstance(node.low, Literal) and isinstance(node.high, Literal):
            if _null_literal(node.low) or _null_literal(node.high):
                return None
        value, low, high = (
            reference(part, row, schema)
            for part in (node.operand, node.low, node.high)
        )
        if value is None or low is None or high is None:
            return None
        return low <= value <= high
    if kind is InList:
        value = reference(node.operand, row, schema)
        return None if value is None else value in node.values
    if kind is Like:
        value = reference(node.operand, row, schema)
        if value is None:
            return None
        return node._compiled.match(str(value)) is not None
    if kind is Case:
        for condition, value in node.branches:
            if reference(condition, row, schema) is True:
                return reference(value, row, schema)
        return reference(node.default, row, schema)
    raise TypeError("no reference for %r" % (node,))


def reference_outcome(expression, data, keep_true):
    """What a plan over ``data`` returns: π's ``(value,)`` rows, or the rows
    σ keeps; the exception type of the first row that raises."""
    try:
        values = [reference(expression, row) for row in data]
    except Exception as error:  # noqa: BLE001 — the type is the outcome
        return type(error)
    if keep_true:
        return repr([row for row, value in zip(data, values) if value is True])
    return repr([(value,) for value in values])


def _value_plan(expression, data):
    return lambda: Plan(Project(RowSource(WIDE, data), [("v", expression)]))


def _filter_plan(expression, data):
    return lambda: Plan(Filter(RowSource(WIDE, data), expression))


@settings(max_examples=300, deadline=None)
@given(any_expression(), wide_rows)
def test_value_equals_the_reference_on_both_row_engines(expression, data):
    expected = reference_outcome(expression, data, False)
    for engine in ("interpreted", "fused"):
        assert outcome(_value_plan(expression, data), engine) == expected


@settings(max_examples=300, deadline=None)
@given(any_expression(), wide_rows)
def test_rejection_equals_the_reference_on_both_row_engines(expression, data):
    expected = reference_outcome(expression, data, True)
    for engine in ("interpreted", "fused"):
        assert outcome(_filter_plan(expression, data), engine) == expected


# -- one evaluator: bind compiles the text the fused engine inlines ----------------

DEEP_ROWS = [(1, 0.5, "a", None), (None, 2.0, "b", 3), (3, None, "c", 0),
             (2, 1.5, "ab", 2), (-1, 0.0, "", -2)]


def _deep_chain(levels):
    expression = col("a")
    for level in range(levels):
        operand = col("d") if level % 7 == 0 else lit(level % 3)
        expression = Arithmetic("+-*%"[level % 4], expression, operand)
    return expression


def _wide_and(width):
    return And(*(
        Comparison(">=", col("a") * lit(level) - col("d"), lit(-level))
        for level in range(width)
    ))


def test_trees_past_the_depth_limit_equal_the_reference():
    chain, conjunction = _deep_chain(300), _wide_and(60)
    assert expression_module._MAX_SOURCE_DEPTH < 300
    for expression in (chain, conjunction, Not(IsNull(chain))):
        for keep_true, plan in ((False, _value_plan), (True, _filter_plan)):
            expected = reference_outcome(expression, DEEP_ROWS, keep_true)
            assert expected != ExpressionError
            for engine in ("interpreted", "fused"):
                assert outcome(plan(expression, DEEP_ROWS), engine) == expected


def test_a_warm_second_bind_adds_no_cache_entry():
    expression = And(Between(col("b"), lit(0.05), lit(0.07)),
                     col("a") < lit(24), Like(col("c"), "a%"))
    first = expression.bind(WIDE)
    entries = len(expression_module._FACTORIES)
    second = expression.bind(WIDE)
    assert len(expression_module._FACTORIES) == entries
    assert first.__code__ is second.__code__
    for row in DEEP_ROWS:
        assert repr(first(row)) == repr(second(row)) == repr(
            reference(expression, row)
        )


def test_plans_that_differ_only_in_literals_share_one_text():
    def plan(low, high, pattern, threshold):
        predicate = And(Between(col("a"), lit(low), lit(high)),
                        Like(col("c"), pattern), col("b") * lit(2) > threshold)
        return Plan(Project(Filter(RowSource(WIDE, DEEP_ROWS), predicate),
                            [("v", col("b") - lit(threshold))]))

    one, two = plan(0, 2, "a%", 0.5), plan(-5, 9, "_", 7)
    assert compiled.generated_source(one) == compiled.generated_source(two)
    predicate = one.root.child.predicate
    predicate.bind(WIDE)
    entries = len(expression_module._FACTORIES)
    assert two.root.child.predicate.bind(WIDE).__code__ is (
        predicate.bind(WIDE).__code__
    )
    assert len(expression_module._FACTORIES) == entries


class Bare(Expression):
    """A user-defined node with neither a source emitter nor a bind."""

    def references(self):
        return ()


def test_a_node_with_neither_an_emitter_nor_a_bind_raises_expression_error():
    try:
        Bare().bind(WIDE)
    except ExpressionError:
        pass
    else:
        raise AssertionError("bind did not raise")
    for expression in (Bare(), And(col("a") > lit(0), Bare())):
        for engine in ("interpreted", "fused"):
            assert outcome(_filter_plan(expression, DEEP_ROWS), engine) is (
                ExpressionError
            )
