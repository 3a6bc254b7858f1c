"""Physical plans: a thin wrapper over an operator tree plus inspection tools.

A :class:`Plan` names an operator tree and provides the structural queries
the progress layer needs (leaves, blocking nodes, nested-iteration nodes,
scan-based classification per §5.4 of the paper) and a textual EXPLAIN.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterator, List, Optional, Tuple, Type, TypeVar

from repro.engine.operators.aggregate import HashAggregate
from repro.engine.operators.base import LeafOperator, Operator
from repro.engine.operators.hash_join import HashJoin
from repro.engine.operators.misc import Limit
from repro.engine.operators.nested_loops import NestedLoopsJoin
from repro.engine.operators.scan import RowSource, TableScan
from repro.engine.operators.sort import Sort
from repro.engine.operators.topn import TopN
from repro.errors import PlanError

O = TypeVar("O", bound=Operator)


@functools.lru_cache(maxsize=None)
def _edges(cls: type) -> Tuple[Optional[bool], Optional[bool]]:
    """How a ``cls`` node passes the standard context to its first child
    and to the others: ``True`` imposes it, ``False`` clears it, ``None``
    passes the node's own flag on.  Cached per class: the ``issubclass``
    chain over the operator ABCs is the costly part of a plan walk.
    """
    if issubclass(cls, (Sort, TopN, HashAggregate)):
        return True, True  # blocking: always drained
    if issubclass(cls, HashJoin):
        return True, None  # the build side is always drained
    if issubclass(cls, NestedLoopsJoin):
        return None, False  # the inner is rescanned per outer row
    if issubclass(cls, Limit):
        return False, False  # the child may be cut off mid-stream
    return None, None


@functools.lru_cache(maxsize=None)
def _scans_table(cls: type) -> bool:
    return issubclass(cls, (TableScan, RowSource))


def _standard_walk(root: Operator) -> List[Tuple[Operator, bool]]:
    """Every node in pre-order, with whether it is standard (see
    :func:`standard_flags`)."""
    walked: List[Tuple[Operator, bool]] = []

    def walk(node: Operator, standard: bool) -> None:
        walked.append((node, standard))
        first, rest = _edges(type(node))
        for i, child in enumerate(node.children):
            imposed = first if i == 0 else rest
            walk(child, standard if imposed is None else imposed)

    walk(root, True)
    return walked


def standard_flags(root: Operator) -> Dict[int, bool]:
    """Which nodes provably always execute under the standard context —
    the root's: one execution, to the end of its input.

    Blocking drains (sort, top-n, hash aggregate, hash-join build)
    re-impose it; a LIMIT's child loses ``full_scan`` and a ⋈NL's inner
    loses ``single_exec``.  On a standard node the total counted getnext
    calls equal its single full-scan output, which the bounds tracker and
    the bound-provider overlays rely on.
    """
    return {
        node.operator_id: standard for node, standard in _standard_walk(root)
    }


class Plan:
    """A named, validated physical plan."""

    def __init__(self, root: Operator, name: str = "query") -> None:
        root.validate()
        self.root = root
        self.name = name

    # -- structure -------------------------------------------------------------

    def operators(self) -> Iterator[Operator]:
        return self.root.walk()

    def leaves(self) -> List[LeafOperator]:
        return [op for op in self.operators() if isinstance(op, LeafOperator)]

    def scanned_leaves(self) -> List[Operator]:
        """Leaves guaranteed to be scanned exactly once — the paper's ``L_s``.

        The table scans and row sources that :func:`standard_flags` marks:
        not on a ⋈NL inner (rescanned per outer row) and not under a LIMIT
        with no intervening blocking operator (possibly cut off mid-scan).
        """
        return [
            node for node, standard in _standard_walk(self.root)
            if standard and _scans_table(type(node))
        ]

    def find(self, operator_type: Type[O]) -> List[O]:
        return [op for op in self.operators() if isinstance(op, operator_type)]

    def internal_node_count(self) -> int:
        """Number of non-leaf operators (the ``m`` of Property 6)."""
        return sum(1 for op in self.operators() if op.children)

    def is_scan_based(self) -> bool:
        """§5.4: no ⋈NL, no ⋈INL, no index-seek anywhere in the tree."""
        return not any(op.is_nested_iteration for op in self.operators())

    def is_linear(self) -> bool:
        """True when every internal operator is linear (Property 6 setting)."""
        return all(op.is_linear for op in self.operators() if op.children)

    def blocking_operators(self) -> List[Operator]:
        return [op for op in self.operators() if op.is_blocking]

    # -- explain ----------------------------------------------------------------

    def explain(self) -> str:
        """Indented textual rendering of the operator tree."""
        lines: List[str] = []

        def render(node: Operator, depth: int) -> None:
            marks = []
            if node.is_blocking:
                marks.append("blocking")
            if node.is_nested_iteration:
                marks.append("nested-iteration")
            if node.children and not node.is_linear:
                marks.append("non-linear")
            suffix = "  [%s]" % (", ".join(marks),) if marks else ""
            lines.append("%s%s%s" % ("  " * depth, node.describe(), suffix))
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "Plan(%s)" % (self.name,)
