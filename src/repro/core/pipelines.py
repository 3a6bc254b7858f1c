"""Pipeline decomposition and driver-node identification (§4.1).

A *pipeline* is a maximal set of concurrently executing operators; blocking
operators (sort, the build phase of a hash join, hash aggregation) cut the
plan into pipelines that run in a partial order.  Each pipeline is *driven*
by its input node(s): the node whose consumed fraction the dne estimator
reads.

Decomposition rules for this engine's operators:

* leaves (table scan, row source, index seek) start a pipeline as drivers;
* σ, π, stream-γ, distinct, limit stay in their child's pipeline;
* sort and hash-γ terminate their child's pipeline and *drive* a new one;
* hash join's build child terminates its own pipeline at the join; the join
  output belongs to the probe child's pipeline;
* ⋈NL and ⋈INL stay in the *outer* child's pipeline; a ⋈NL's entire inner
  subtree is swallowed into that same pipeline (its rescans are interleaved
  work, not an independent input);
* merge join and union-all produce multi-driver pipelines — the case the
  paper's footnote 1 sets aside; we support it by summing driver fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.operators.aggregate import HashAggregate
from repro.engine.operators.base import LeafOperator, Operator
from repro.engine.operators.hash_join import HashJoin
from repro.engine.operators.index_nested_loops import IndexNestedLoopsJoin
from repro.engine.operators.index_seek import IndexSeek
from repro.engine.operators.merge_join import MergeJoin
from repro.engine.operators.misc import UnionAll
from repro.engine.operators.nested_loops import NestedLoopsJoin
from repro.engine.operators.scan import RowSource, TableScan
from repro.engine.operators.sort import Sort
from repro.engine.operators.topn import TopN
from repro.engine.plan import Plan


class PipelineState(NamedTuple):
    """One pipeline's driver state at one instant (see :meth:`Pipeline.state`).

    Everything a sample reads off a pipeline — dne's fraction, the robust
    combination's current segment, the event's
    :class:`~repro.core.observe.PipelineSnapshot` — comes from one of these,
    built once per instant by :attr:`Observation.pipeline_states
    <repro.core.estimators.base.Observation.pipeline_states>`.
    """

    pipeline: "Pipeline"
    finished: bool
    started: bool
    driver_consumed: int
    #: expected driver output in total (what was consumed, once finished)
    driver_total: float
    driver_fraction: float


@dataclass
class Pipeline:
    """One pipeline: its operators, its driver nodes, and its consumer."""

    index: int
    operators: List[Operator] = field(default_factory=list)
    drivers: List[Operator] = field(default_factory=list)
    #: the blocking operator that consumes this pipeline's output, if any
    consumer: Optional[Operator] = None
    #: what :meth:`bind` hoisted out of the sample path
    _bound: Optional["_BoundPipeline"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def contains(self, operator: Operator) -> bool:
        return any(op is operator for op in self.operators)

    def bind(self) -> "_BoundPipeline":
        """Hoist what is static for a run out of the sample path.

        :func:`decompose` calls this once the decomposition is final; a
        hand-assembled pipeline binds itself on first use.  Operators or
        drivers changed afterwards need a fresh ``bind()``.
        """
        bound = self._bound = _BoundPipeline(
            tuple(_hint_entry(operator) for operator in self.operators),
            tuple(_hint_entry(driver) for driver in self.drivers),
            tuple(driver.label() for driver in self.drivers),
        )
        return bound

    @property
    def driver_labels(self) -> Tuple[str, ...]:
        return (self._bound or self.bind()).driver_labels

    # -- runtime state -----------------------------------------------------------

    def state(self, estimates: Optional[Dict[int, float]] = None) -> PipelineState:
        """This instant's driver state, from one pass over the drivers.

        Un-memoised: estimators and sinks read the per-instant copy on the
        :class:`~repro.core.estimators.base.Observation` instead.
        """
        finished = True
        consumed = 0
        for driver in self.drivers:
            consumed += driver.rows_produced
            if not driver.finished:
                finished = False
        if finished:
            return PipelineState(
                self, True, consumed > 0, consumed, float(consumed), 1.0
            )
        total = self.driver_total(estimates)
        if total <= 0:
            fraction = 1.0 if consumed > 0 else 0.0
        else:
            fraction = min(1.0, consumed / total)
        return PipelineState(
            self, False, consumed > 0, consumed, total, fraction
        )

    def driver_total(self, estimates: Optional[Dict[int, float]] = None) -> float:
        """Expected number of tuples the drivers will produce in total.

        Exact for leaves (catalog cardinalities / index match counts) and
        for blocking drivers that finished materializing; otherwise falls
        back to the optimizer estimate for that node.
        """
        total = 0.0
        for entry in (self._bound or self.bind()).drivers:
            hint = _entry_hint(entry, estimates)
            total += hint if hint is not None else 0.0
        return total

    def driver_consumed(self) -> int:
        """Tuples retrieved from the drivers so far."""
        return sum(driver.rows_produced for driver in self.drivers)

    def driver_fraction(self, estimates: Optional[Dict[int, float]] = None) -> float:
        """dne's core quantity: fraction of the driver input consumed."""
        return self.state(estimates).driver_fraction

    def weight(self, estimates: Optional[Dict[int, float]] = None) -> float:
        """Expected counted getnext calls in this pipeline (dne's weight).

        Finished operators contribute their exact tick counts; unfinished
        ones their optimizer estimate (falling back to what they produced
        so far when no estimate is available).  These weights carry no
        guarantee — they only apportion progress across pipelines, exactly
        as in [5].
        """
        weight = 0.0
        for entry in (self._bound or self.bind()).operators:
            hint = _entry_hint(entry, estimates)
            if hint is None:
                hint = max(entry.operator.rows_produced, 1.0)
            weight += hint
        return weight

    def started(self) -> bool:
        return self.driver_consumed() > 0

    def finished(self) -> bool:
        return all(driver.finished for driver in self.drivers)

    def __repr__(self) -> str:
        return "Pipeline(%d: drivers=%s, %d operators)" % (
            self.index,
            [driver.label() for driver in self.drivers],
            len(self.operators),
        )


#: small dispatch codes for :func:`runtime_output_hint`: ``isinstance``
#: against ABC-backed operator classes is slow, so each operator is
#: classified once, when its pipeline is bound, never per sample.
_HINT_OTHER, _HINT_SORT, _HINT_TOPN, _HINT_AGG = range(4)


class _HintEntry(NamedTuple):
    """What :func:`runtime_output_hint` knows of an operator before it runs."""

    operator: Operator
    kind: int
    #: the exact cardinality of a leaf or seek (catalog / index metadata)
    exact: Optional[float]
    #: the input's entry, where the hint may defer to it (sort, top-n)
    child: Optional["_HintEntry"]


class _BoundPipeline(NamedTuple):
    operators: Tuple[_HintEntry, ...]
    drivers: Tuple[_HintEntry, ...]
    driver_labels: Tuple[str, ...]


def _hint_entry(operator: Operator) -> _HintEntry:
    kind, exact, child = _HINT_OTHER, None, None
    if isinstance(operator, (TableScan, RowSource)):
        exact = float(operator.base_cardinality())
    elif isinstance(operator, IndexSeek):
        exact = float(operator.exact_match_count())
    elif isinstance(operator, (Sort, TopN)):
        kind = _HINT_TOPN if isinstance(operator, TopN) else _HINT_SORT
        child = _hint_entry(operator.child)
    elif isinstance(operator, HashAggregate):
        kind = _HINT_AGG
    return _HintEntry(operator, kind, exact, child)


def runtime_output_hint(
    operator: Operator, estimates: Optional[Dict[int, float]]
) -> Optional[float]:
    """Best current guess of an operator's final output cardinality.

    Exact for finished operators, leaves and materialized blocking
    operators; live for aggregates (groups seen so far grow during the
    build — execution feedback the estimators are allowed to use); the
    optimizer estimate otherwise.  No guarantee attaches to the last case.
    """
    return _entry_hint(_hint_entry(operator), estimates)


def _entry_hint(
    entry: _HintEntry, estimates: Optional[Dict[int, float]]
) -> Optional[float]:
    operator, kind, exact, child = entry
    if operator.finished:
        return float(operator.rows_produced)
    if exact is not None:
        return exact
    if child is not None:
        materialized = operator.materialized_count()
        if materialized is not None:
            return float(materialized)
        child_hint = _entry_hint(child, estimates)
        if kind == _HINT_TOPN:
            if child_hint is not None:
                return min(float(operator.limit), child_hint)
            return float(operator.limit)
        return child_hint
    if kind == _HINT_AGG:
        if not operator.group_by:
            return 1.0
        if operator.input_consumed:
            return float(operator.groups_seen())
        # The group count only grows; once the build is underway it is a
        # far better forecast than the optimizer's grouping-fraction guess.
        if operator.groups_seen() > 0:
            return float(operator.groups_seen())
    if estimates is not None and operator.operator_id in estimates:
        return max(estimates[operator.operator_id], float(operator.rows_produced))
    if operator.rows_produced > 0:
        return float(operator.rows_produced)
    return None


def decompose(plan: Plan) -> List[Pipeline]:
    """Split ``plan`` into pipelines, in rough execution order."""
    pipelines: List[Pipeline] = []

    def new_pipeline(driver: Operator) -> Pipeline:
        pipeline = Pipeline(index=len(pipelines))
        pipeline.drivers.append(driver)
        pipeline.operators.append(driver)
        pipelines.append(pipeline)
        return pipeline

    def swallow(pipeline: Pipeline, node: Operator) -> None:
        """Absorb an entire subtree into ``pipeline`` (⋈NL inner sides)."""
        for descendant in node.walk():
            if not pipeline.contains(descendant):
                pipeline.operators.append(descendant)

    def visit(node: Operator) -> Pipeline:
        """Return the pipeline that ``node``'s *output* ticks belong to."""
        if isinstance(node, LeafOperator):
            return new_pipeline(node)
        if isinstance(node, (Sort, HashAggregate, TopN)):
            child_pipeline = visit(node.children[0])
            child_pipeline.consumer = node
            return new_pipeline(node)
        if isinstance(node, HashJoin):
            build_pipeline = visit(node.build_child)
            build_pipeline.consumer = node
            probe_pipeline = visit(node.probe_child)
            probe_pipeline.operators.append(node)
            return probe_pipeline
        if isinstance(node, NestedLoopsJoin):
            outer_pipeline = visit(node.left)
            swallow(outer_pipeline, node.right)
            outer_pipeline.operators.append(node)
            return outer_pipeline
        if isinstance(node, IndexNestedLoopsJoin):
            outer_pipeline = visit(node.child)
            outer_pipeline.operators.append(node)
            return outer_pipeline
        if isinstance(node, MergeJoin):
            left_pipeline = visit(node.left)
            right_pipeline = visit(node.right)
            return _merge(pipelines, left_pipeline, right_pipeline, node)
        if isinstance(node, UnionAll):
            merged = visit(node.children[0])
            for child in node.children[1:]:
                merged = _merge(pipelines, merged, visit(child), None)
            merged.operators.append(node)
            return merged
        # Unary streaming operators: σ, π, stream-γ, distinct, limit.
        pipeline = visit(node.children[0])
        pipeline.operators.append(node)
        return pipeline

    visit(plan.root)
    for pipeline in pipelines:
        pipeline.bind()
    return pipelines


def _merge(
    pipelines: List[Pipeline],
    left: Pipeline,
    right: Pipeline,
    tail: Optional[Operator],
) -> Pipeline:
    """Fuse two pipelines into one multi-driver pipeline (merge join, union)."""
    left.operators.extend(op for op in right.operators if not left.contains(op))
    left.drivers.extend(driver for driver in right.drivers if driver not in left.drivers)
    pipelines.remove(right)
    for i, pipeline in enumerate(pipelines):
        pipeline.index = i
    if tail is not None:
        left.operators.append(tail)
    return left


def pipeline_of(pipelines: List[Pipeline], operator: Operator) -> Optional[Pipeline]:
    """The pipeline whose output ticks include ``operator``'s, if any."""
    for pipeline in pipelines:
        if pipeline.contains(operator):
            return pipeline
    return None


def current_pipeline(pipelines: List[Pipeline]) -> Optional[Pipeline]:
    """The earliest pipeline that has started but not finished."""
    state = current_state([pipeline.state() for pipeline in pipelines])
    return state.pipeline if state is not None else None


def current_state(states: Sequence[PipelineState]) -> Optional[PipelineState]:
    """:func:`current_pipeline` over one instant's pipeline states."""
    for state in states:
        if state.started and not state.finished:
            return state
    for state in states:
        if not state.finished:
            return state
    return None
