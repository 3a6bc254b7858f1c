"""The operator protocol without an ABC, the kind tag, and binding on the
first pull.

``Operator`` is a plain class: completeness (``name``, ``_open``,
``_next``, a ``kind`` the §5.1 rules know) is checked here over every
operator class the package defines, and a user-defined subclass must
still classify and run on every engine.
Expressions bind on an operator's first interpreted ``_next``: nodes the
fused engine inlines never bind, a rescan keeps its functions, and a
closed plan drops them.
"""

from __future__ import annotations

import pickle

import pytest

import repro.engine.columnar  # noqa: F401  (operator classes it may define)
import repro.engine.compiled  # noqa: F401
from repro.core.bounds import BoundsTracker
from repro.core.bounds.paper2005 import RULES
from repro.core.estimators.safe import SafeEstimator
from repro.core.pipelines import decompose
from repro.core.runner import run_with_estimators
from repro.engine.executor import ENGINES, execute
from repro.engine.expressions import col, lit
from repro.engine.operators import (
    BinaryOperator,
    Filter,
    HashAggregate,
    HashJoin,
    IndexNestedLoopsJoin,
    LeafOperator,
    MergeJoin,
    NestedLoopsJoin,
    Operator,
    Project,
    Sort,
    SortKey,
    StreamAggregate,
    TableScan,
    UnaryOperator,
    count_star,
)
from repro.engine.operators import base
from repro.engine.operators.aggregate import _AggregateBase
from repro.engine.plan import Plan
from repro.stats.estimate import CardinalityEstimator
from repro.storage import Catalog, Table, schema_of
from repro.storage.index import HashIndex

#: the shared bases: not operators a plan can hold on their own
_BASES = {Operator, UnaryOperator, BinaryOperator, LeafOperator, _AggregateBase}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _definer(cls, attribute):
    return next(k for k in cls.__mro__ if attribute in k.__dict__)


def test_operator_is_a_plain_class():
    assert type(Operator) is type


#: every operator kind: the upper-case integer tags of the base module
KINDS = {
    value for name, value in vars(base).items()
    if name.isupper() and isinstance(value, int)
}


def test_every_concrete_operator_defines_the_protocol():
    concrete = [
        cls for cls in set(_all_subclasses(Operator))
        if cls.__module__.startswith("repro.") and cls not in _BASES
    ]
    assert len(concrete) >= 17
    for cls in concrete:
        for attribute in ("name", "_open", "_next"):
            assert _definer(cls, attribute) is not Operator, (cls, attribute)
        assert cls.kind in KINDS and cls.kind != base.OTHER, cls


def test_every_kind_has_a_bounds_rule():
    assert len(KINDS) == 16
    assert set(RULES) == KINDS


def _table(name="t", n=30):
    return Table(
        name, schema_of(name, "a:int", "b:int"),
        [(i, i % 4) for i in range(n)],
    )


class _Relay(UnaryOperator):
    """A user-defined operator the package knows nothing of."""

    name = "Relay"

    def __init__(self, child):
        super().__init__(child.schema, child)

    def _open(self):
        pass

    def _next(self):
        return self.child.get_next()


class _EvenFilter(Filter):
    """A user-defined subclass of a package operator."""

    def __init__(self, child):
        super().__init__(child, col("b") < lit(2))


def test_an_incomplete_subclass_fails_clearly():
    class Bare(LeafOperator):
        pass

    bare = Bare(schema_of("x", "a:int"))
    with pytest.raises(NotImplementedError, match="Bare defines no name"):
        bare.label()
    with pytest.raises(NotImplementedError, match="_open"):
        bare._open()
    with pytest.raises(NotImplementedError, match="_next"):
        bare._next()


@pytest.mark.parametrize("engine", ENGINES)
def test_user_defined_subclasses_classify_and_run(engine):
    relay = _Relay(_EvenFilter(TableScan(_table())))
    plan = Plan(relay)
    assert relay.kind == base.OTHER
    assert relay.child.kind == base.FILTER
    (pipeline,) = decompose(plan)
    assert pipeline.operators == list(reversed(list(plan.operators())))
    assert len(execute(plan, engine=engine).rows) == 16
    report = run_with_estimators(plan, [SafeEstimator()], engine=engine)
    assert report.total == 30 + 16 + 16
    for sample in report.trace.samples:
        assert sample.curr <= sample.lower_bound <= report.total
        assert report.total <= sample.upper_bound


class _Countdown(LeafOperator):
    """A user-defined leaf the package knows nothing of: kind ``OTHER``."""

    name = "Countdown"

    def __init__(self, n):
        super().__init__(schema_of("c", "a:int", "b:int"))
        self.n = n

    def _open(self):
        self._left = self.n

    def _next(self):
        if self._left == 0:
            return None
        self._left -= 1
        return (self._left, self._left % 4)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_user_defined_leaf_drives_its_own_pipeline(engine):
    countdown = _Countdown(20)
    hashed = HashJoin(
        countdown, TableScan(_table()), col("c.a"), col("t.a"),
    )
    plan = Plan(HashAggregate(hashed, [("k", col("t.b"))], [count_star("n")]))
    assert countdown.kind == base.OTHER
    assert plan.leaves() == [countdown, hashed.right]
    build, probe, aggregated = decompose(plan)
    assert build.drivers == [countdown] and build.consumer is hashed
    assert probe.drivers == [hashed.right] and probe.consumer is plan.root
    assert aggregated.drivers == [plan.root]
    # the optimizer knows nothing of the leaf's size; the scan it knows
    estimates = CardinalityEstimator(Catalog()).estimate_plan(plan)
    assert estimates[countdown.operator_id] == 0.0
    assert estimates[hashed.right.operator_id] == 30.0
    assert BoundsTracker(plan).snapshot().upper >= 30
    assert len(execute(plan, engine=engine).rows) == 4
    report = run_with_estimators(plan, [SafeEstimator()], engine=engine)
    assert report.total == 20 + 30 + 20 + 4
    for sample in report.trace.samples:
        assert sample.curr <= sample.lower_bound <= report.total
        # an unfinished OTHER leaf's upper bound is infinite (docs/bounds.md)
        assert report.total <= sample.upper_bound
    assert report.trace.samples[-1].upper_bound == report.total


def _every_binding_operator():
    """One plan with every operator kind that binds expressions, and a
    filtered, projected ⋈NL inner that is rescanned per outer row."""
    left, right = _table("l", 12), _table("r", 8)
    hashed = HashJoin(
        TableScan(left, "x"), Filter(TableScan(right, "y"), col("y.a") < lit(6)),
        col("x.a"), col("y.a"),
    )
    merged = MergeJoin(
        Sort(hashed, [SortKey(col("x.b"))]),
        Sort(TableScan(right, "z"), [SortKey(col("z.b"))]),
        col("x.b"), col("z.b"),
    )
    streamed = StreamAggregate(merged, [("k", col("x.b"))], [count_star("n")])
    looked_up = IndexNestedLoopsJoin(
        streamed, HashIndex("ix", right, "b"), col("k"), inner_alias="w",
    )
    outer = HashAggregate(looked_up, [("g", col("w.b"))], [count_star("m")])
    inner = Filter(
        Project(TableScan(left, "v"), [("vb", col("v.b"))]), col("vb") < lit(3)
    )
    return Plan(NestedLoopsJoin(outer, inner, col("g") == col("vb")))


_BINDERS = (Filter, Project, HashJoin, MergeJoin, IndexNestedLoopsJoin,
            NestedLoopsJoin, HashAggregate, StreamAggregate)


@pytest.fixture
def binds(monkeypatch):
    """Count every ``_bind`` call, per operator class."""
    calls = []
    for cls in _BINDERS:
        original = cls.__dict__.get("_bind") or _AggregateBase._bind

        def counting(self, original=original):
            calls.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "_bind", counting)
    return calls


def test_the_interpreter_binds_once_per_operator_not_per_rescan(binds):
    plan = _every_binding_operator()
    result = execute(plan, engine="interpreted")
    assert result.rows
    assert result.per_operator["Filter#%d" % plan.root.right.operator_id] > 12
    assert sorted(binds) == sorted(
        type(op).__name__ for op in plan.operators()
        if isinstance(op, _BINDERS)
    )


def test_fused_inlined_operators_never_bind(binds):
    plan = _every_binding_operator()
    fused = execute(plan, engine="fused").rows
    # ⋈NL is a row source in the fused program and binds its predicate;
    # the operators inlined around and below it never bind
    assert binds == ["NestedLoopsJoin"]
    assert fused == execute(_every_binding_operator(), engine="interpreted").rows


@pytest.mark.parametrize("engine", ENGINES)
def test_a_run_plan_drops_its_bound_functions(engine):
    plan = _every_binding_operator()
    before = execute(plan, engine=engine).rows
    for op in plan.operators():
        for attribute in ("_bound", "_project", "_build_fn", "_key_fn",
                          "_left_fn", "_update", "_emit"):
            assert getattr(op, attribute, None) in (None, []), (op, attribute)
    clone = pickle.loads(pickle.dumps(plan))
    assert execute(clone, engine=engine).rows == before
