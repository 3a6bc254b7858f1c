"""Scalar expressions evaluated over rows, with SQL NULL semantics.

Expressions form a small tree language (literals, column references,
comparisons, boolean connectives, arithmetic, BETWEEN/IN/LIKE/CASE).  An
expression is *bound* against a schema once (resolving column names to tuple
positions), yielding a plain Python callable that is then applied per row —
the Volcano operators never re-resolve names in their inner loops.

NULL handling follows SQL's three-valued logic: comparisons and arithmetic
involving NULL yield NULL, AND/OR/NOT use Kleene logic, and a filter keeps a
row only when its predicate is exactly ``True``.

Beside ``bind`` every built-in node has a ``_source`` emitter, reached through
:func:`to_source`: it returns the node as *Python source text* over a row
variable, for the fused engine to inline into its generated pipeline loops
(:mod:`repro.engine.compiled`).  The text mirrors ``bind`` exactly — the same
literal folding, the same evaluation order, the same short-circuits, hence
the same value or the same exception on every row — and a node type without
an emitter (user-defined expressions, subclasses) is called through its bound
closure, so coverage can grow node by node.
"""

from __future__ import annotations

import abc
import re
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.storage.schema import Schema

BoundFn = Callable[[Sequence[object]], object]

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")

_COMPARE_FNS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC_FNS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: None if b == 0 else a / b,
    "%": lambda a, b: None if b == 0 else a % b,
}


def _make_col_lit_factories():
    """Per-operator closure factories for ``row[pos] <op> constant``.

    The hottest comparison shape in every workload; generating the operator
    inline (instead of calling a shared ``compare`` lambda) saves one
    Python frame per evaluated row.
    """
    factories = {}
    for op_name, symbol in (
        ("=", "=="), ("<>", "!="), ("<", "<"),
        ("<=", "<="), (">", ">"), (">=", ">="),
    ):
        namespace: dict = {}
        exec(
            "def factory(position, constant):\n"
            "    def evaluate_col_lit(row):\n"
            "        a = row[position]\n"
            "        if a is None:\n"
            "            return None\n"
            "        return a %s constant\n"
            "    return evaluate_col_lit\n" % (symbol,),
            namespace,
        )
        factories[op_name] = namespace["factory"]
    return factories


_COL_LIT_COMPARE_FACTORIES = _make_col_lit_factories()

#: ``str.format`` templates over two operand names, for :func:`to_source`
_COMPARE_SOURCE = {
    "=": "{0} == {1}", "<>": "{0} != {1}", "<": "{0} < {1}",
    "<=": "{0} <= {1}", ">": "{0} > {1}", ">=": "{0} >= {1}",
}
_ARITHMETIC_SOURCE = {
    "+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}",
    "/": "(None if {1} == 0 else {0} / {1})",
    "%": "(None if {1} == 0 else {0} % {1})",
}
#: nodes nested deeper than this are called through their bound closure: the
#: emitted text nests a parenthesis or two per level and CPython's tokenizer
#: refuses more than 200
_MAX_SOURCE_DEPTH = 40


def to_source(expression: "Expression", g, depth: int = 0) -> str:
    """``expression`` as Python source over the row variable ``g.row``.

    ``g`` is the code generator's context: ``g.row`` (name of the row
    variable), ``g.schema`` (its schema), ``g.const(value)`` (name under
    which a constant reaches the generated function — literals, sets,
    regexes and closures never appear in the text, so it depends on
    expression *shape* and column positions only) and ``g.tmp()`` (a fresh
    local name; sub-results are kept with ``:=``).  Dispatch is on the exact
    type: anything else is evaluated by ``bind``'s closure.
    """
    emit = _SOURCE.get(type(expression))
    if emit is None or depth > _MAX_SOURCE_DEPTH:
        return "%s(%s)" % (g.const(expression.bind(g.schema)), g.row)
    return emit(expression, g, depth + 1)


def reject_source(expression: "Expression", g) -> str:
    """Source of a condition that holds when ``expression`` is not TRUE.

    What σ and join residuals need.  A conjunction skips building its
    three-valued result: it is not TRUE as soon as an operand is FALSE
    (later operands are then not evaluated, as in ``And.bind``) or, all
    operands evaluated, one of them is NULL.
    """
    if type(expression) is And:
        return "%s or %s" % expression._tests(g, 1, "False")
    return "%s is not True" % (to_source(expression, g),)


def _binary_source(node, g, depth: int, template: str) -> str:
    """NULL-propagating binary node, folded and ordered as its ``bind``."""
    left, right = node.left, node.right
    if isinstance(right, Literal):
        if right.value is None:
            return "None"
        a = g.tmp()
        return "(None if (%s := %s) is None else %s)" % (
            a, to_source(left, g, depth),
            template.format(a, g.const(right.value)),
        )
    if isinstance(left, Literal):
        if left.value is None:
            return "None"
        b = g.tmp()
        return "(None if (%s := %s) is None else %s)" % (
            b, to_source(right, g, depth),
            template.format(g.const(left.value), b),
        )
    a, b = g.tmp(), g.tmp()
    # ``bind`` evaluates both operands before it looks for a NULL; only a
    # bare column on the right can be skipped unobserved.
    return "(None if ((%s := %s) is None) %s ((%s := %s) is None) else %s)" % (
        a, to_source(left, g, depth),
        "or" if type(right) is ColumnRef else "|",
        b, to_source(right, g, depth), template.format(a, b),
    )


class Expression(abc.ABC):
    """Base class for all scalar expression nodes."""

    @abc.abstractmethod
    def bind(self, schema: Schema) -> BoundFn:
        """Resolve column names against ``schema``; return an evaluator."""

    @abc.abstractmethod
    def references(self) -> Tuple[str, ...]:
        """Column names referenced anywhere in this expression tree."""

    def evaluate(self, row: Sequence[object], schema: Schema) -> object:
        """Convenience one-shot evaluation (binds every call; tests only)."""
        return self.bind(schema)(row)

    # Operator sugar so plans read naturally: col("a") == lit(3), etc.
    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("=", self, _coerce(other))

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("<>", self, _coerce(other))

    def __lt__(self, other: object) -> "Comparison":
        return Comparison("<", self, _coerce(other))

    def __le__(self, other: object) -> "Comparison":
        return Comparison("<=", self, _coerce(other))

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(">", self, _coerce(other))

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(">=", self, _coerce(other))

    def __add__(self, other: object) -> "Arithmetic":
        return Arithmetic("+", self, _coerce(other))

    def __sub__(self, other: object) -> "Arithmetic":
        return Arithmetic("-", self, _coerce(other))

    def __mul__(self, other: object) -> "Arithmetic":
        return Arithmetic("*", self, _coerce(other))

    def __truediv__(self, other: object) -> "Arithmetic":
        return Arithmetic("/", self, _coerce(other))

    def __mod__(self, other: object) -> "Arithmetic":
        return Arithmetic("%", self, _coerce(other))

    def __hash__(self) -> int:
        return hash(repr(self))


def _coerce(value: object) -> "Expression":
    if isinstance(value, Expression):
        return value
    return Literal(value)


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: object) -> None:
        self.value = value

    def bind(self, schema: Schema) -> BoundFn:
        value = self.value
        return lambda row: value

    def _source(self, g, depth: int) -> str:
        return g.const(self.value)

    def references(self) -> Tuple[str, ...]:
        return ()

    def __repr__(self) -> str:
        return "lit(%r)" % (self.value,)


class ColumnRef(Expression):
    """A reference to a column by (possibly qualified) name."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ExpressionError("column reference needs a name")
        self.name = name

    def bind(self, schema: Schema) -> BoundFn:
        return itemgetter(schema.index_of(self.name))

    def _source(self, g, depth: int) -> str:
        return "%s[%d]" % (g.row, g.schema.index_of(self.name))

    def references(self) -> Tuple[str, ...]:
        return (self.name,)

    def __repr__(self) -> str:
        return "col(%r)" % (self.name,)


class Comparison(Expression):
    """A binary comparison with SQL NULL propagation."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in COMPARISON_OPS:
            raise ExpressionError("unknown comparison operator %r" % (op,))
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> BoundFn:
        compare = _COMPARE_FNS[self.op]
        # Bind-time constant folding: a literal operand is evaluated here,
        # not per row, and a literal NULL makes the whole comparison NULL.
        # ``col <op> literal`` — the overwhelmingly common shape — collapses
        # to a single closure with zero nested calls.
        if isinstance(self.right, Literal):
            b = self.right.value
            if b is None:
                return lambda row: None
            if isinstance(self.left, ColumnRef):
                position = schema.index_of(self.left.name)
                return _COL_LIT_COMPARE_FACTORIES[self.op](position, b)
            left = self.left.bind(schema)

            def evaluate_lit_right(row: Sequence[object]) -> object:
                a = left(row)
                if a is None:
                    return None
                return compare(a, b)

            return evaluate_lit_right
        if isinstance(self.left, Literal):
            a = self.left.value
            if a is None:
                return lambda row: None
            right = self.right.bind(schema)

            def evaluate_lit_left(row: Sequence[object]) -> object:
                b = right(row)
                if b is None:
                    return None
                return compare(a, b)

            return evaluate_lit_left
        if isinstance(self.left, ColumnRef) and isinstance(
            self.right, ColumnRef
        ):
            left_pos = schema.index_of(self.left.name)
            right_pos = schema.index_of(self.right.name)

            def evaluate_col_col(row: Sequence[object]) -> object:
                a = row[left_pos]
                b = row[right_pos]
                if a is None or b is None:
                    return None
                return compare(a, b)

            return evaluate_col_col
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def evaluate(row: Sequence[object]) -> object:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return compare(a, b)

        return evaluate

    def _source(self, g, depth: int) -> str:
        return _binary_source(self, g, depth, _COMPARE_SOURCE[self.op])

    def references(self) -> Tuple[str, ...]:
        return self.left.references() + self.right.references()

    def __repr__(self) -> str:
        return "(%r %s %r)" % (self.left, self.op, self.right)


class Arithmetic(Expression):
    """Binary arithmetic with NULL propagation; division by zero is NULL."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in ARITHMETIC_OPS:
            raise ExpressionError("unknown arithmetic operator %r" % (op,))
        self.op = op
        self.left = left
        self.right = right

    def bind(self, schema: Schema) -> BoundFn:
        # One closure per operator: string dispatch at bind time, not per
        # row.  / and % keep their division-by-zero-is-NULL guard.  Literal
        # operands fold at bind time (``1 - discount`` evaluates one nested
        # call per row, not two).
        arith = _ARITHMETIC_FNS[self.op]
        if isinstance(self.right, Literal):
            b = self.right.value
            if b is None:
                return lambda row: None
            left = self.left.bind(schema)

            def evaluate_lit_right(row: Sequence[object]) -> object:
                a = left(row)
                if a is None:
                    return None
                return arith(a, b)

            return evaluate_lit_right
        if isinstance(self.left, Literal):
            a = self.left.value
            if a is None:
                return lambda row: None
            right = self.right.bind(schema)

            def evaluate_lit_left(row: Sequence[object]) -> object:
                b = right(row)
                if b is None:
                    return None
                return arith(a, b)

            return evaluate_lit_left
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def evaluate(row: Sequence[object]) -> object:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return arith(a, b)

        return evaluate

    def _source(self, g, depth: int) -> str:
        return _binary_source(self, g, depth, _ARITHMETIC_SOURCE[self.op])

    def references(self) -> Tuple[str, ...]:
        return self.left.references() + self.right.references()

    def __repr__(self) -> str:
        return "(%r %s %r)" % (self.left, self.op, self.right)


class And(Expression):
    """Kleene-logic conjunction over two or more operands."""

    def __init__(self, *operands: Expression) -> None:
        if len(operands) < 2:
            raise ExpressionError("AND needs at least two operands")
        self.operands = tuple(operands)

    def bind(self, schema: Schema) -> BoundFn:
        bound = [operand.bind(schema) for operand in self.operands]
        # Unrolled conjunctions for the common arities: no list iteration,
        # no saw_null flag updates in the inner loop.  Semantics match the
        # generic loop exactly (short-circuit on the first False, NULL only
        # when no operand is False and at least one is NULL).
        if len(bound) == 2:
            f0, f1 = bound

            def evaluate2(row: Sequence[object]) -> object:
                a = f0(row)
                if a is False:
                    return False
                b = f1(row)
                if b is False:
                    return False
                return None if (a is None or b is None) else True

            return evaluate2
        if len(bound) == 3:
            f0, f1, f2 = bound

            def evaluate3(row: Sequence[object]) -> object:
                a = f0(row)
                if a is False:
                    return False
                b = f1(row)
                if b is False:
                    return False
                c = f2(row)
                if c is False:
                    return False
                return None if (a is None or b is None or c is None) else True

            return evaluate3
        if len(bound) == 4:
            f0, f1, f2, f3 = bound

            def evaluate4(row: Sequence[object]) -> object:
                a = f0(row)
                if a is False:
                    return False
                b = f1(row)
                if b is False:
                    return False
                c = f2(row)
                if c is False:
                    return False
                d = f3(row)
                if d is False:
                    return False
                return None if (
                    a is None or b is None or c is None or d is None
                ) else True

            return evaluate4

        def evaluate(row: Sequence[object]) -> object:
            saw_null = False
            for fn in bound:
                value = fn(row)
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True

        return evaluate

    def _tests(self, g, depth: int, decisive: str) -> Tuple[str, str]:
        """``(an operand is <decisive>, an operand is NULL)`` as two
        ``or`` chains over the operands' values, evaluated left to right."""
        names = [g.tmp() for _ in self.operands]
        return (
            " or ".join(
                "(%s := %s) is %s" % (
                    name, to_source(operand, g, depth), decisive
                )
                for name, operand in zip(names, self.operands)
            ),
            " or ".join("%s is None" % (name,) for name in names),
        )

    def _source(self, g, depth: int) -> str:
        return "(False if %s else None if %s else True)" % (
            self._tests(g, depth, "False")
        )

    def references(self) -> Tuple[str, ...]:
        return tuple(name for operand in self.operands for name in operand.references())

    def __repr__(self) -> str:
        return "AND(%s)" % (", ".join(repr(operand) for operand in self.operands),)


class Or(Expression):
    """Kleene-logic disjunction over two or more operands."""

    def __init__(self, *operands: Expression) -> None:
        if len(operands) < 2:
            raise ExpressionError("OR needs at least two operands")
        self.operands = tuple(operands)

    def bind(self, schema: Schema) -> BoundFn:
        bound = [operand.bind(schema) for operand in self.operands]
        # Mirror of And.bind's unrolled fast paths.
        if len(bound) == 2:
            f0, f1 = bound

            def evaluate2(row: Sequence[object]) -> object:
                a = f0(row)
                if a is True:
                    return True
                b = f1(row)
                if b is True:
                    return True
                return None if (a is None or b is None) else False

            return evaluate2
        if len(bound) == 3:
            f0, f1, f2 = bound

            def evaluate3(row: Sequence[object]) -> object:
                a = f0(row)
                if a is True:
                    return True
                b = f1(row)
                if b is True:
                    return True
                c = f2(row)
                if c is True:
                    return True
                return None if (a is None or b is None or c is None) else False

            return evaluate3

        def evaluate(row: Sequence[object]) -> object:
            saw_null = False
            for fn in bound:
                value = fn(row)
                if value is True:
                    return True
                if value is None:
                    saw_null = True
            return None if saw_null else False

        return evaluate

    _tests = And._tests

    def _source(self, g, depth: int) -> str:
        return "(True if %s else None if %s else False)" % (
            self._tests(g, depth, "True")
        )

    def references(self) -> Tuple[str, ...]:
        return tuple(name for operand in self.operands for name in operand.references())

    def __repr__(self) -> str:
        return "OR(%s)" % (", ".join(repr(operand) for operand in self.operands),)


class Not(Expression):
    """Kleene-logic negation."""

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def bind(self, schema: Schema) -> BoundFn:
        bound = self.operand.bind(schema)

        def evaluate(row: Sequence[object]) -> object:
            value = bound(row)
            if value is None:
                return None
            return not value

        return evaluate

    def _source(self, g, depth: int) -> str:
        name = g.tmp()
        return "(None if (%s := %s) is None else not %s)" % (
            name, to_source(self.operand, g, depth), name
        )

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __repr__(self) -> str:
        return "NOT(%r)" % (self.operand,)


class IsNull(Expression):
    """``expr IS NULL`` (or IS NOT NULL with ``negated=True``)."""

    def __init__(self, operand: Expression, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def bind(self, schema: Schema) -> BoundFn:
        bound = self.operand.bind(schema)
        negated = self.negated
        return lambda row: (bound(row) is not None) if negated else (bound(row) is None)

    def _source(self, g, depth: int) -> str:
        return "(%s is %sNone)" % (
            to_source(self.operand, g, depth), "not " if self.negated else ""
        )

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __repr__(self) -> str:
        return "IS %sNULL(%r)" % ("NOT " if self.negated else "", self.operand)


class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive on both ends, as in SQL)."""

    def __init__(self, operand: Expression, low: Expression, high: Expression) -> None:
        self.operand = operand
        self.low = low
        self.high = high

    def bind(self, schema: Schema) -> BoundFn:
        # Literal bounds (the usual case) fold at bind time, leaving a
        # closure with a single nested call — or none when the operand is a
        # bare column reference.
        if isinstance(self.low, Literal) and isinstance(self.high, Literal):
            lo = self.low.value
            hi = self.high.value
            if lo is None or hi is None:
                return lambda row: None
            if isinstance(self.operand, ColumnRef):
                position = schema.index_of(self.operand.name)

                def evaluate_col(row: Sequence[object]) -> object:
                    value = row[position]
                    if value is None:
                        return None
                    return lo <= value <= hi  # type: ignore[operator]

                return evaluate_col
            bound = self.operand.bind(schema)

            def evaluate_lit(row: Sequence[object]) -> object:
                value = bound(row)
                if value is None:
                    return None
                return lo <= value <= hi  # type: ignore[operator]

            return evaluate_lit
        bound = self.operand.bind(schema)
        low = self.low.bind(schema)
        high = self.high.bind(schema)

        def evaluate(row: Sequence[object]) -> object:
            value = bound(row)
            lo = low(row)
            hi = high(row)
            if value is None or lo is None or hi is None:
                return None
            return lo <= value <= hi  # type: ignore[operator]

        return evaluate

    def _source(self, g, depth: int) -> str:
        literal = isinstance(self.low, Literal) and isinstance(self.high, Literal)
        if literal and (self.low.value is None or self.high.value is None):
            return "None"
        value = g.tmp()
        operand = to_source(self.operand, g, depth)
        if literal:
            return "(None if (%s := %s) is None else %s <= %s <= %s)" % (
                value, operand, g.const(self.low.value), value,
                g.const(self.high.value),
            )
        lo, hi = g.tmp(), g.tmp()
        return (
            "(None if ((%s := %s) is None) | ((%s := %s) is None)"
            " | ((%s := %s) is None) else %s <= %s <= %s)" % (
                value, operand, lo, to_source(self.low, g, depth),
                hi, to_source(self.high, g, depth), lo, value, hi,
            )
        )

    def references(self) -> Tuple[str, ...]:
        return (
            self.operand.references() + self.low.references() + self.high.references()
        )

    def __repr__(self) -> str:
        return "BETWEEN(%r, %r, %r)" % (self.operand, self.low, self.high)


class InList(Expression):
    """``expr IN (v1, v2, ...)`` over literal values."""

    def __init__(self, operand: Expression, values: Sequence[object]) -> None:
        self.operand = operand
        self.values = tuple(values)

    def bind(self, schema: Schema) -> BoundFn:
        allowed = set(self.values)
        if isinstance(self.operand, ColumnRef):
            position = schema.index_of(self.operand.name)

            def evaluate_col(row: Sequence[object]) -> object:
                value = row[position]
                if value is None:
                    return None
                return value in allowed

            return evaluate_col
        bound = self.operand.bind(schema)

        def evaluate(row: Sequence[object]) -> object:
            value = bound(row)
            if value is None:
                return None
            return value in allowed

        return evaluate

    def _source(self, g, depth: int) -> str:
        value = g.tmp()
        return "(None if (%s := %s) is None else %s in %s)" % (
            value, to_source(self.operand, g, depth), value,
            g.const(set(self.values)),
        )

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __repr__(self) -> str:
        return "IN(%r, %r)" % (self.operand, list(self.values))


class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards (compiled to a regex once)."""

    def __init__(self, operand: Expression, pattern: str) -> None:
        self.operand = operand
        self.pattern = pattern
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern
        )
        self._compiled = re.compile("^%s$" % (regex,), re.DOTALL)

    def bind(self, schema: Schema) -> BoundFn:
        bound = self.operand.bind(schema)
        compiled = self._compiled

        def evaluate(row: Sequence[object]) -> object:
            value = bound(row)
            if value is None:
                return None
            return compiled.match(str(value)) is not None

        return evaluate

    def _source(self, g, depth: int) -> str:
        value = g.tmp()
        return "(None if (%s := %s) is None else %s(str(%s)) is not None)" % (
            value, to_source(self.operand, g, depth),
            g.const(self._compiled.match), value,
        )

    def references(self) -> Tuple[str, ...]:
        return self.operand.references()

    def __repr__(self) -> str:
        return "LIKE(%r, %r)" % (self.operand, self.pattern)


class Case(Expression):
    """``CASE WHEN cond THEN value ... ELSE value END``."""

    def __init__(
        self,
        branches: Sequence[Tuple[Expression, Expression]],
        default: Optional[Expression] = None,
    ) -> None:
        if not branches:
            raise ExpressionError("CASE needs at least one WHEN branch")
        self.branches = tuple(branches)
        self.default = default if default is not None else Literal(None)

    def bind(self, schema: Schema) -> BoundFn:
        bound = [
            (condition.bind(schema), value.bind(schema))
            for condition, value in self.branches
        ]
        default = self.default.bind(schema)

        def evaluate(row: Sequence[object]) -> object:
            for condition, value in bound:
                if condition(row) is True:
                    return value(row)
            return default(row)

        return evaluate

    def _source(self, g, depth: int) -> str:
        return "(%s%s)" % (
            "".join(
                "%s if %s is True else " % (
                    to_source(value, g, depth), to_source(condition, g, depth)
                )
                for condition, value in self.branches
            ),
            to_source(self.default, g, depth),
        )

    def references(self) -> Tuple[str, ...]:
        names: List[str] = []
        for condition, value in self.branches:
            names.extend(condition.references())
            names.extend(value.references())
        names.extend(self.default.references())
        return tuple(names)

    def __repr__(self) -> str:
        return "CASE(%sELSE %r)" % (
            "".join(
                "WHEN %r THEN %r " % branch for branch in self.branches
            ),
            self.default,
        )


#: exact node type -> source emitter; see :func:`to_source`
_SOURCE = {
    kind: kind._source
    for kind in (
        Literal, ColumnRef, Comparison, Arithmetic, And, Or, Not, IsNull,
        Between, InList, Like, Case,
    )
}


# -- convenience constructors (the public plan-building vocabulary) -----------


def col(name: str) -> ColumnRef:
    """A column reference."""
    return ColumnRef(name)


def lit(value: object) -> Literal:
    """A literal value."""
    return Literal(value)


# -- structural analysis helpers ----------------------------------------------


def conjuncts(expression: Expression) -> List[Expression]:
    """Flatten nested ANDs into a list of conjuncts."""
    if isinstance(expression, And):
        flattened: List[Expression] = []
        for operand in expression.operands:
            flattened.extend(conjuncts(operand))
        return flattened
    return [expression]


def conjoin(parts: Sequence[Expression]) -> Expression:
    """Combine conjuncts back into a single expression."""
    if not parts:
        raise ExpressionError("cannot conjoin an empty list")
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def as_column_equality(expression: Expression) -> Optional[Tuple[str, str]]:
    """If ``expression`` is ``col = col``, return the two column names."""
    if (
        isinstance(expression, Comparison)
        and expression.op == "="
        and isinstance(expression.left, ColumnRef)
        and isinstance(expression.right, ColumnRef)
    ):
        return expression.left.name, expression.right.name
    return None


def as_column_constant(
    expression: Expression,
) -> Optional[Tuple[str, str, object]]:
    """If ``expression`` compares one column with a constant, normalize it.

    Returns ``(column, op, value)`` with the column on the left, or None.
    """
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
    if isinstance(expression, Comparison):
        if isinstance(expression.left, ColumnRef) and isinstance(
            expression.right, Literal
        ):
            return expression.left.name, expression.op, expression.right.value
        if isinstance(expression.left, Literal) and isinstance(
            expression.right, ColumnRef
        ):
            return expression.right.name, flip[expression.op], expression.left.value
    if isinstance(expression, Between) and isinstance(expression.operand, ColumnRef):
        # Callers that care about BETWEEN should use as_column_range instead.
        return None
    return None


def as_column_range(
    expression: Expression,
) -> Optional[Tuple[str, Optional[object], Optional[object], bool, bool]]:
    """Normalize a range-shaped predicate on a single column.

    Returns ``(column, low, high, low_inclusive, high_inclusive)`` for
    comparisons with constants and BETWEEN, or None.
    """
    if isinstance(expression, Between):
        if isinstance(expression.operand, ColumnRef) and isinstance(
            expression.low, Literal
        ) and isinstance(expression.high, Literal):
            return (
                expression.operand.name,
                expression.low.value,
                expression.high.value,
                True,
                True,
            )
        return None
    simple = as_column_constant(expression)
    if simple is None:
        return None
    column, op, value = simple
    if op == "=":
        return column, value, value, True, True
    if op == "<":
        return column, None, value, True, False
    if op == "<=":
        return column, None, value, True, True
    if op == ">":
        return column, value, None, False, True
    if op == ">=":
        return column, value, None, True, True
    return None
