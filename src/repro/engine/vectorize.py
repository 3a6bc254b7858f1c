"""Vectorized expression evaluation over columns, with exact row semantics.

The columnar engine evaluates an :class:`~repro.engine.expressions.Expression`
against a whole batch at once.  The contract is strict bit-identity with the
row engines, which both run the node's source text from ``expressions.py``
(inlined by the fused engine, compiled by ``bind`` for the interpreter):
SQL NULL propagation, Kleene AND/OR with ``is False`` / ``is True`` identity
checks, division by zero as NULL, folding of literal NULL operands — every
rule of that text is replicated here, and anything not replicated raises
:class:`Unvectorizable` so the caller can fall back to the row-at-a-time
bound function (always correct, just slower).

Value representation (a "vcol"):

* a NumPy array — NULL-free by construction (operations that can introduce
  NULLs, like division by a zero divisor, demote their result to a list);
* a plain Python list — may contain ``None`` for NULL, one element per row.

NumPy paths are taken only when they are provably equivalent: float64
arithmetic is IEEE-754 like Python floats, int64 comparisons and floored
``%`` match Python ints, ``'<U'`` string comparisons are lexicographic like
``str``.  Anything doubtful (float ``%``, cross-kind IN lists, CASE dtype
merging) runs the exact Python loop instead — over lists, which is still
far cheaper than re-entering the expression interpreter per row.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.engine.expressions import (
    And,
    Arithmetic,
    Between,
    Case,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from repro.storage.schema import Schema

try:  # pragma: no cover - exercised via the no-NumPy CI job
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


#: the row semantics of each operator, for the exact Python loops
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


class Unvectorizable(Exception):
    """Raised when an expression has no exact vectorized translation."""


class _Const:
    """A literal operand, kept scalar until an operation needs a column."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value


def _is_np(values: object) -> bool:
    return _np is not None and isinstance(values, _np.ndarray)


def _expand(values, n: int):
    """Materialize a `_Const` into a per-row list; pass columns through."""
    if isinstance(values, _Const):
        return [values.value] * n
    return values


def tolist(values) -> List[object]:
    """A vcol as a plain Python list of native values."""
    if _is_np(values):
        return values.tolist()
    return values


_NP_COMPARE = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def evaluate(expr: Expression, schema: Schema, cols: Sequence[object], n: int):
    """Evaluate ``expr`` over a batch; returns a vcol of length ``n``.

    ``cols`` holds one vcol per column of ``schema``.  Raises
    :class:`Unvectorizable` when any node lacks an exact translation.
    """
    return _expand(_ev(expr, schema, cols, n), n)


def truth_mask(values, n: int):
    """Selection mask under SQL's ``value is True`` filter semantics."""
    if isinstance(values, _Const):
        return [values.value is True] * n
    if _is_np(values):
        if values.dtype == _np.bool_:
            return values
        # Row-at-a-time ``value is True`` can never hold for non-bool
        # values (identity, not equality), so the mask is all-False.
        return _np.zeros(n, dtype=bool)
    return [value is True for value in values]


def _ev(expr: Expression, schema, cols, n: int):
    kind = type(expr)
    if kind is ColumnRef:
        return cols[schema.index_of(expr.name)]
    if kind is Literal:
        return _Const(expr.value)
    if kind is Comparison:
        return _ev_compare(expr, schema, cols, n)
    if kind is Arithmetic:
        return _ev_arith(expr, schema, cols, n)
    if kind is And:
        return _ev_connective(expr.operands, schema, cols, n, is_and=True)
    if kind is Or:
        return _ev_connective(expr.operands, schema, cols, n, is_and=False)
    if kind is Not:
        return _ev_not(expr, schema, cols, n)
    if kind is IsNull:
        return _ev_is_null(expr, schema, cols, n)
    if kind is Between:
        return _ev_between(expr, schema, cols, n)
    if kind is InList:
        return _ev_in_list(expr, schema, cols, n)
    if kind is Like:
        return _ev_like(expr, schema, cols, n)
    if kind is Case:
        return _ev_case(expr, schema, cols, n)
    raise Unvectorizable(type(expr).__name__)


def _ev_compare(expr: Comparison, schema, cols, n: int):
    a = _ev(expr.left, schema, cols, n)
    b = _ev(expr.right, schema, cols, n)
    if isinstance(a, _Const) and a.value is None:
        return _Const(None)  # bind-time literal-NULL fold
    if isinstance(b, _Const) and b.value is None:
        return _Const(None)
    compare = _COMPARE_FNS[expr.op]
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _Const(compare(a.value, b.value))
    np_compare = _NP_COMPARE[expr.op]
    if _is_np(a) and _is_np(b):
        try:
            return np_compare(a, b)
        except (TypeError, ValueError):
            raise Unvectorizable("array comparison failed")
    if _is_np(a) and isinstance(b, _Const):
        return _np_scalar_compare(np_compare, a, b.value, False)
    if _is_np(b) and isinstance(a, _Const):
        return _np_scalar_compare(np_compare, b, a.value, True)
    av = tolist(_expand(a, n))
    bv = tolist(_expand(b, n))
    return [
        None if (x is None or y is None) else compare(x, y)
        for x, y in zip(av, bv)
    ]


def _np_scalar_compare(np_compare, arr, scalar, flipped: bool):
    if not _comparable_with(arr, scalar):
        raise Unvectorizable("cross-kind comparison")
    try:
        result = np_compare(scalar, arr) if flipped else np_compare(arr, scalar)
    except (TypeError, ValueError):
        raise Unvectorizable("scalar comparison failed")
    if not (_is_np(result) and result.dtype == _np.bool_):
        raise Unvectorizable("comparison did not broadcast")
    return result


def _comparable_with(arr, scalar) -> bool:
    """True when NumPy's compare agrees with Python's for this pairing."""
    kind = arr.dtype.kind
    if kind in ("i", "f", "b"):
        return type(scalar) in (int, float, bool)
    if kind == "U":
        return type(scalar) is str
    return False


def _ev_arith(expr: Arithmetic, schema, cols, n: int):
    a = _ev(expr.left, schema, cols, n)
    b = _ev(expr.right, schema, cols, n)
    if isinstance(a, _Const) and a.value is None:
        return _Const(None)
    if isinstance(b, _Const) and b.value is None:
        return _Const(None)
    arith = _ARITHMETIC_FNS[expr.op]
    if isinstance(a, _Const) and isinstance(b, _Const):
        return _Const(arith(a.value, b.value))
    op = expr.op
    a_np = _is_np(a) or (isinstance(a, _Const) and type(a.value) in (int, float))
    b_np = _is_np(b) or (isinstance(b, _Const) and type(b.value) in (int, float))
    if a_np and b_np and (_is_np(a) or _is_np(b)):
        av = a.value if isinstance(a, _Const) else a
        bv = b.value if isinstance(b, _Const) else b
        if op in ("+", "-", "*"):
            fn = {"+": _np.add, "-": _np.subtract, "*": _np.multiply}[op]
            return fn(av, bv)
        if op == "/":
            zeros = bv == 0
            has_zero = bool(zeros.any()) if _is_np(zeros) else bool(zeros)
            if not has_zero:
                return _np.true_divide(av, bv)
            with _np.errstate(divide="ignore", invalid="ignore"):
                result = _np.true_divide(av, bv).tolist()
            if _is_np(zeros):
                for index in _np.flatnonzero(zeros).tolist():
                    result[index] = None
                return result
            return [None] * n
        if op == "%":
            # Floored int % matches Python exactly; float % may differ by
            # an ulp between libm implementations, so it runs in Python.
            def _kind(value):
                if _is_np(value):
                    return value.dtype.kind
                return "i" if type(value) is int else "f"

            if _kind(av) == "i" and _kind(bv) == "i":
                zeros = bv == 0
                has_zero = bool(zeros.any()) if _is_np(zeros) else bool(zeros)
                if not has_zero:
                    return _np.mod(av, bv)
    av = tolist(_expand(a, n))
    bv = tolist(_expand(b, n))
    return [
        None if (x is None or y is None) else arith(x, y)
        for x, y in zip(av, bv)
    ]


def _ev_connective(operands, schema, cols, n: int, is_and: bool):
    evaluated = [_ev(operand, schema, cols, n) for operand in operands]
    dominant = False if is_and else True  # the short-circuiting value
    # NULL-free non-bool columns can never be ``is False``/``is True``/None
    # per row, so they contribute nothing to Kleene logic — drop them.
    effective = []
    for value in evaluated:
        if isinstance(value, _Const):
            if value.value is dominant:
                return _Const(dominant)
            if value.value is None or type(value.value) is bool:
                effective.append(value)
            continue
        if _is_np(value) and value.dtype != _np.bool_:
            continue
        effective.append(value)
    if not effective:
        return _Const(not dominant)
    if all(_is_np(value) for value in effective):
        if is_and:
            result = effective[0]
            for value in effective[1:]:
                result = result & value
            return result
        result = effective[0]
        for value in effective[1:]:
            result = result | value
        return result
    lists = [tolist(_expand(value, n)) for value in effective]
    out: List[object] = []
    # Identity checks (``is False`` / ``is True``), not ``in``/``==``: an
    # integer 0 operand must not count as False, matching the interpreter.
    for row_values in zip(*lists):
        dominated = False
        saw_null = False
        for value in row_values:
            if value is dominant:
                dominated = True
                break
            if value is None:
                saw_null = True
        if dominated:
            out.append(dominant)
        elif saw_null:
            out.append(None)
        else:
            out.append(not dominant)
    return out


def _ev_not(expr: Not, schema, cols, n: int):
    value = _ev(expr.operand, schema, cols, n)
    if isinstance(value, _Const):
        inner = value.value
        return _Const(None if inner is None else (not inner))
    if _is_np(value):
        if value.dtype == _np.bool_:
            return ~value
        raise Unvectorizable("NOT over non-boolean column")
    return [None if v is None else (not v) for v in value]


def _ev_is_null(expr: IsNull, schema, cols, n: int):
    value = _ev(expr.operand, schema, cols, n)
    negated = expr.negated
    if isinstance(value, _Const):
        is_null = value.value is None
        return _Const((not is_null) if negated else is_null)
    if _is_np(value):  # NULL-free by construction
        if _np is None:
            raise Unvectorizable("unreachable")
        return (
            _np.ones(n, dtype=bool) if negated else _np.zeros(n, dtype=bool)
        )
    if negated:
        return [v is not None for v in value]
    return [v is None for v in value]


def _ev_between(expr: Between, schema, cols, n: int):
    value = _ev(expr.operand, schema, cols, n)
    low = _ev(expr.low, schema, cols, n)
    high = _ev(expr.high, schema, cols, n)
    literal_bounds = isinstance(expr.low, Literal) and isinstance(
        expr.high, Literal
    )
    if literal_bounds and (expr.low.value is None or expr.high.value is None):
        return _Const(None)  # bind-time fold
    for operand in (value, low, high):
        if isinstance(operand, _Const) and operand.value is None:
            return _Const(None)
    if (
        _is_np(value)
        and isinstance(low, _Const)
        and isinstance(high, _Const)
        and _comparable_with(value, low.value)
        and _comparable_with(value, high.value)
    ):
        return (low.value <= value) & (value <= high.value)
    values = tolist(_expand(value, n))
    lows = tolist(_expand(low, n))
    highs = tolist(_expand(high, n))
    return [
        None if (v is None or lo is None or hi is None) else (lo <= v <= hi)
        for v, lo, hi in zip(values, lows, highs)
    ]


def _ev_in_list(expr: InList, schema, cols, n: int):
    value = _ev(expr.operand, schema, cols, n)
    allowed = set(expr.values)
    if isinstance(value, _Const):
        if value.value is None:
            return _Const(None)
        return _Const(value.value in allowed)
    if _is_np(value) and all(
        _comparable_with(value, item) for item in allowed
    ):
        return _np.isin(value, list(allowed))
    return [None if v is None else (v in allowed) for v in tolist(value)]


def _ev_like(expr: Like, schema, cols, n: int):
    value = _ev(expr.operand, schema, cols, n)
    match = expr._compiled.match
    if isinstance(value, _Const):
        inner = value.value
        if inner is None:
            return _Const(None)
        return _Const(match(str(inner)) is not None)
    return [
        None if v is None else (match(str(v)) is not None)
        for v in tolist(value)
    ]


def _ev_case(expr: Case, schema, cols, n: int):
    condition_lists = []
    value_lists = []
    for condition, value in expr.branches:
        condition_lists.append(
            tolist(_expand(_ev(condition, schema, cols, n), n))
        )
        value_lists.append(tolist(_expand(_ev(value, schema, cols, n), n)))
    default_list = tolist(_expand(_ev(expr.default, schema, cols, n), n))
    out: List[object] = []
    branch_count = len(condition_lists)
    for row in range(n):
        for branch in range(branch_count):
            if condition_lists[branch][row] is True:
                out.append(value_lists[branch][row])
                break
        else:
            out.append(default_list[row])
    return out
