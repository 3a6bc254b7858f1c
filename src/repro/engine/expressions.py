"""Scalar expressions evaluated over rows, with SQL NULL semantics.

Expressions form a small tree language (literals, column references,
comparisons, boolean connectives, arithmetic, BETWEEN/IN/LIKE/CASE).

NULL handling follows SQL's three-valued logic: comparisons and arithmetic
involving NULL yield NULL, AND/OR/NOT use Kleene logic, and a filter keeps a
row only when its predicate is exactly ``True``.

Every built-in node has one specification: its ``_source`` emitter, reached
through :func:`to_source`, which writes the node as *Python source text* over
a row variable — its literal folding, evaluation order and short-circuits,
hence its value or its exception on every row.  The fused engine inlines
that text into its generated pipeline loops (:mod:`repro.engine.compiled`);
:meth:`Expression.bind` compiles the same text into a function of the row
for the interpreter's operators, sort keys and join keys; the columnar
engine's batch evaluator (:mod:`repro.engine.vectorize`) replicates it a
column at a time.  Literals, sets, regexes and closures reach the text as
named constants, so a text depends only on expression shape and column
positions, and :data:`_FACTORIES` compiles each text once per process.

A node type without an emitter (a user-defined expression) overrides
``bind``; the text of any tree containing it calls its closure.
"""

from __future__ import annotations

import abc
import re
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.storage.schema import Schema

BoundFn = Callable[[Sequence[object]], object]

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")

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
#: nodes nested deeper than this are called through their own bound
#: function: the emitted text nests a parenthesis or two per level and
#: CPython's tokenizer refuses more than 200
_MAX_SOURCE_DEPTH = 40
#: ``bind`` factories by their text, shared by every expression of that
#: shape in the process; cleared when full.  Unlocked, like
#: ``compiled._CODE``: a lost race compiles a text twice and keeps either.
_FACTORY_CACHE_LIMIT = 256
_FACTORIES: Dict[str, Callable] = {}


class SourceContext:
    """What :func:`to_source` emits against.

    ``row`` names the row variable and ``schema`` is its schema;
    :meth:`const` returns the name under which a constant reaches the
    generated function (``consts[i]`` is ``k<i>``) and :meth:`tmp` a fresh
    local name (sub-results are kept with ``:=``).
    """

    def __init__(self, consts: Optional[list] = None, row: Optional[str] = None,
                 schema: Optional[Schema] = None) -> None:
        self.consts: list = [] if consts is None else consts
        self.temps = 0
        self.row, self.schema = row, schema

    def const(self, value: object) -> str:
        self.consts.append(value)
        return "k%d" % (len(self.consts) - 1,)

    def tmp(self) -> str:
        self.temps += 1
        return "t%d" % (self.temps,)


def to_source(expression: "Expression", g: SourceContext, depth: int = 0) -> str:
    """``expression`` as Python source over the row variable ``g.row``.

    Dispatch is on the exact type; any other node, and a subtree deeper than
    :data:`_MAX_SOURCE_DEPTH`, is called through its ``bind``.
    """
    emit = _SOURCE.get(type(expression))
    if emit is None or depth > _MAX_SOURCE_DEPTH:
        return "%s(%s)" % (g.const(expression.bind(g.schema)), g.row)
    return emit(expression, g, depth + 1)


def reject_source(expression: "Expression", g: SourceContext) -> str:
    """Source of a condition that holds when ``expression`` is not TRUE.

    What σ and join residuals need.  A conjunction skips building its
    three-valued result: it is not TRUE as soon as an operand is FALSE
    (later operands are then not evaluated, as in its value text) or, all
    operands evaluated, one of them is NULL.
    """
    if type(expression) is And:
        return "%s or %s" % expression._tests(g, 1, "False")
    return "%s is not True" % (to_source(expression, g),)


def _binary_source(node, g: SourceContext, depth: int) -> str:
    """NULL-propagating binary node: a literal operand folds into the text
    (a literal NULL makes the node NULL without evaluating the other)."""
    left, right = node.left, node.right
    template = node._TEMPLATES[node.op]
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
    # Both operands are evaluated before the NULL test (a failing right
    # operand fails even when the left is NULL); only a bare column on the
    # right can be skipped unobserved.
    return "(None if ((%s := %s) is None) %s ((%s := %s) is None) else %s)" % (
        a, to_source(left, g, depth),
        "or" if type(right) is ColumnRef else "|",
        b, to_source(right, g, depth), template.format(a, b),
    )


class Expression(abc.ABC):
    """Base class for all scalar expression nodes."""

    def bind(self, schema: Schema) -> BoundFn:
        """Resolve column names against ``schema``; return an evaluator.

        The evaluator is this node's source text as ``lambda row: <text>``,
        built by a factory over the text's constants that is compiled at
        most once per text in the process.
        """
        emit = getattr(type(self), "_source", None)
        if emit is None:
            raise ExpressionError(
                "%s has no source emitter and no bind of its own"
                % (type(self).__name__,)
            )
        g = SourceContext(row="row", schema=schema)
        body = emit(self, g, 1)
        text = "def bind(%s):\n    return lambda row: %s\n" % (
            ", ".join("k%d" % (i,) for i in range(len(g.consts))), body,
        )
        factory = _FACTORIES.get(text)
        if factory is None:
            namespace: dict = {}
            exec(compile(text, "<expression>", "exec"), namespace)
            if len(_FACTORIES) >= _FACTORY_CACHE_LIMIT:
                _FACTORIES.clear()
            factory = _FACTORIES[text] = namespace["bind"]
        return factory(*g.consts)

    @abc.abstractmethod
    def references(self) -> Tuple[str, ...]:
        """Column names referenced anywhere in this expression tree."""

    def evaluate(self, row: Sequence[object], schema: Schema) -> object:
        """One-shot evaluation for tests: binds on every call, which
        generates the node's text each time (compiled once per text)."""
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

    _TEMPLATES = _COMPARE_SOURCE
    _source = _binary_source

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

    _TEMPLATES = _ARITHMETIC_SOURCE
    _source = _binary_source

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
