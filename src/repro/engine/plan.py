"""Physical plans: a thin wrapper over an operator tree plus inspection tools.

A :class:`Plan` names an operator tree and provides the structural queries
the progress layer needs (leaves, blocking nodes, nested-iteration nodes,
scan-based classification per §5.4 of the paper) and a textual EXPLAIN.

A plan that has run under progress instrumentation also carries that run's
*prepared* analysis (``Plan._prepared``, built and checked by
:func:`repro.core.runner.prepare`): optimizer estimates, pipelines, bounds
tracker and the other facts that do not change while the catalog and the
plan's inputs do not.  It is a memo, never part of the plan's state: a
pickled or copied plan leaves it behind.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Type, TypeVar

from repro.engine.operators.base import (
    AGG_HASH,
    HASH_JOIN,
    INL_JOIN,
    LIMIT,
    NL_JOIN,
    SCAN,
    SEEK,
    SORT,
    TOPN,
    Operator,
)
from repro.errors import PlanError

O = TypeVar("O", bound=Operator)

#: how a node of each kind passes the standard context to its first child
#: and to the others: ``True`` imposes it, ``False`` clears it, ``None``
#: passes the node's own flag on; a kind not listed passes it on to all
_EDGES: Dict[int, Tuple[Optional[bool], Optional[bool]]] = {
    SORT: (True, True),  # blocking: always drained
    TOPN: (True, True),
    AGG_HASH: (True, True),
    HASH_JOIN: (True, None),  # the build side is always drained
    NL_JOIN: (None, False),  # the inner is rescanned per outer row
    LIMIT: (False, False),  # the child may be cut off mid-stream
}


def _standard_walk(root: Operator) -> List[Tuple[Operator, bool]]:
    """Every node in pre-order, with whether it is standard (see
    :func:`standard_flags`)."""
    walked: List[Tuple[Operator, bool]] = []

    def walk(node: Operator, standard: bool) -> None:
        walked.append((node, standard))
        first, rest = _EDGES.get(node.kind, (None, None))
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

    #: the last instrumented run's prepared analysis (see the module
    #: docstring); dropped by pickling
    _prepared: Optional[object] = None

    def __init__(self, root: Operator, name: str = "query") -> None:
        root.validate()
        self.root = root
        self.name = name

    def __getstate__(self) -> Dict[str, object]:
        # The memo holds the bounds tracker's closures: it cannot cross a
        # process boundary, and a worker builds its own on its first run.
        state = self.__dict__.copy()
        state.pop("_prepared", None)
        return state

    # -- structure -------------------------------------------------------------

    def operators(self) -> Iterator[Operator]:
        return self.root.walk()

    def leaves(self) -> List[Operator]:
        return [op for op in self.operators() if not op.children]

    def scanned_leaves(self) -> List[Operator]:
        """Leaves guaranteed to be scanned exactly once — the paper's ``L_s``.

        The table scans and row sources that :func:`standard_flags` marks:
        not on a ⋈NL inner (rescanned per outer row) and not under a LIMIT
        with no intervening blocking operator (possibly cut off mid-scan).
        """
        return [
            node for node, standard in _standard_walk(self.root)
            if standard and node.kind == SCAN
        ]

    def input_sizes(self) -> Tuple[int, ...]:
        """The current size of every row list the plan reads, in pre-order:
        each table scan's and index's table, each row source's rows.

        Together with the catalog's fingerprint this covers every input of
        the static analysis, tables outside the catalog included.
        """
        sizes: List[int] = []
        for node in self.operators():
            kind = node.kind
            if kind == SCAN:
                sizes.append(node.base_cardinality())
            elif kind in (SEEK, INL_JOIN):
                sizes.append(len(node.index.table))
        return tuple(sizes)

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
