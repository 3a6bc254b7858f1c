"""The two bounds trackers: incremental production + full-recompute oracle.

Both trackers call the ``paper2005`` rule table,
:data:`repro.core.bounds.paper2005.RULES`, one function per operator kind:

* :class:`BoundsTracker` — the production tracker.  It caches every static
  quantity at construction (catalog cardinalities, histogram bucket sums,
  predicate shapes), builds one visitor closure per node with its statics
  and children bound in, and, once :meth:`BoundsTracker.attach`\\ ed to an
  :class:`~repro.engine.monitor.ExecutionMonitor`, consumes the monitor's
  event stream to maintain a running ``Curr`` and a dirty set, so each
  :meth:`~BoundsTracker.snapshot` only re-derives bounds for subtrees
  whose runtime counters actually changed.
* :class:`ReferenceBoundsTracker` — the full-recompute oracle: it re-walks
  the whole plan through the same rules and re-resolves every statistic on
  every call.  Equivalence tests assert the incremental tracker is
  bit-identical to it at every sampled instant.

Overlay providers (``bounds=["paper2005", "degree_seq"]``) plug in as a
snapshot post-step: their per-node caps are composed once at construction
(they declare the ``"static"`` maintenance contract, so nothing about them
changes while the query runs and the incremental dirty-set memo stays
valid), and each snapshot intersects them into a *copy* of the per-node
map before re-summing the totals.  With the default stack the caps map is
empty and the snapshot path is exactly the pre-overlay code.  Both
trackers run the identical post-step over bit-identical inputs, so the
incremental/reference equivalence guarantee survives with overlays active.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bounds.model import BoundRefinement, BoundsSnapshot, NodeBounds
from repro.core.bounds.paper2005 import RULES, _static_payload
from repro.core.bounds.providers import (
    apply_caps,
    compose_caps,
    resolve_providers,
)
from repro.engine.monitor import (
    EVENT_RESET,
    EVENT_TICK,
    ExecutionMonitor,
)
from repro.engine.operators.base import Operator
from repro.engine.plan import Plan, standard_flags
from repro.storage.catalog import Catalog


def _compose(
    plan: Plan,
    catalog: Optional[Catalog],
    bounds: Optional[Sequence[str]],
) -> Tuple[
    Tuple[object, ...],
    Dict[int, Tuple[Optional[float], Optional[float], str]],
    Dict[int, str],
]:
    """Shared constructor tail: resolve the stack, compose the static caps."""
    providers = resolve_providers(bounds)
    caps = compose_caps(plan, catalog, providers)
    describe = (
        {op.operator_id: type(op).__name__ for op in plan.operators()}
        if caps
        else {}
    )
    return providers, caps, describe


class BoundsTracker:
    """Incremental :class:`BoundsSnapshot` producer for a plan.

    Construction caches every static quantity and builds one visitor
    closure per node (see :meth:`_build_visitor`).  :meth:`attach`
    subscribes to a monitor's event stream; from then on each
    tick/finish/rewind marks the event's operator and its ancestors dirty,
    and :meth:`snapshot` re-derives bounds only for dirty subtrees whose
    execution context changed — clean subtrees are answered from the memo in
    O(1).  Unattached, every snapshot is a full recompute (still benefiting
    from the static caches and the specialized visitors).

    A tracker outlives a run: the progress runner keeps one per plan (in
    the plan's prepared analysis, :func:`repro.core.runner.prepare`) and
    re-attaches it for every run, so its statics must depend only on the
    plan, the catalog and the provider stack — which the prepared key
    covers — and :meth:`attach` must reset everything else.
    """

    def __init__(
        self,
        plan: Plan,
        catalog: Optional[Catalog] = None,
        bounds: Optional[Sequence[str]] = None,
    ) -> None:
        self.plan = plan
        self.catalog = catalog
        self.providers, self._caps, self._describe = _compose(
            plan, catalog, bounds
        )
        #: overlay refinements applied by the most recent snapshot
        self.last_refinements: List[BoundRefinement] = []
        # -- static caches (never change during execution) ----------------------
        self._ops: List[Operator] = list(plan.operators())
        self._count = len(self._ops)
        self._idx: Dict[int, int] = {
            op.operator_id: i for i, op in enumerate(self._ops)
        }
        self._statics: List[object] = [
            _static_payload(op, catalog) for op in self._ops
        ]
        self._parent_idx: List[int] = [-1] * self._count
        self._subtree_idx: List[List[int]] = []
        for i, op in enumerate(self._ops):
            for child in op.children:
                self._parent_idx[self._idx[child.operator_id]] = i
            self._subtree_idx.append([
                self._idx[descendant.operator_id]
                for descendant in op.walk()
                if descendant is not op
            ])
        self._root_idx = self._idx[plan.root.operator_id]
        self._standard: Dict[int, bool] = standard_flags(plan.root)
        self._all_true = (True,) * self._count
        self._all_false = (False,) * self._count
        # -- incremental runtime state ------------------------------------------
        # The visitors capture these list/dict objects by reference:
        # they must only ever be mutated in place, never rebound.
        self._monitor: Optional[ExecutionMonitor] = None
        self._curr = 0
        self._dirty: List[bool] = [True] * self._count
        self._any_dirty = True
        self._ctx_valid: List[bool] = [False] * self._count
        self._total_lo: List[float] = [0.0] * self._count
        self._total_hi: List[float] = [0.0] * self._count
        self._node_bounds: List[Optional[NodeBounds]] = [None] * self._count
        self._per_node: Dict[int, NodeBounds] = {}
        self._visitors: List[Callable] = [None] * self._count
        self._build_visitor(plan.root)
        self._root_visit = self._visitors[self._root_idx]

    # -- monitor wiring ------------------------------------------------------------

    def attach(self, monitor: ExecutionMonitor) -> None:
        """Feed this tracker from ``monitor``'s event stream.

        Resets all runtime state: attach before the monitored execution
        begins (the runner does this for every run).
        """
        self.detach()
        self._monitor = monitor
        # The batch channel: per-event work here is additive (curr) or
        # idempotent (dirty marking), so coalesced ticks from the fused
        # engine's record_batch are exact — and the interpreted engine
        # delivers the same events with n == 1.
        monitor.add_batch_listener(self._on_batch)
        self._reset_runtime()

    def detach(self) -> None:
        if self._monitor is not None:
            self._monitor.remove_batch_listener(self._on_batch)
            self._monitor = None

    @property
    def curr(self) -> int:
        """Running counted-getnext total (only meaningful while attached)."""
        return self._curr

    def _reset_runtime(self) -> None:
        self._curr = 0
        self._dirty[:] = self._all_true
        self._any_dirty = True
        self._ctx_valid[:] = self._all_false
        self._node_bounds[:] = (None,) * self._count
        self._per_node.clear()

    def _on_batch(self, operator_id: int, event: str, n: int) -> None:
        if event == EVENT_RESET:
            self._reset_runtime()
            return
        i = self._idx.get(operator_id)
        if i is None:
            return
        if event == EVENT_TICK:
            self._curr += n
        # tick, finish and rewind all invalidate the node and its ancestors;
        # stop as soon as an already-dirty ancestor is found (its own
        # ancestors are dirty by induction).
        dirty = self._dirty
        parent = self._parent_idx
        while i >= 0 and not dirty[i]:
            dirty[i] = True
            i = parent[i]
        self._any_dirty = True

    # -- public ------------------------------------------------------------------

    def snapshot(self) -> BoundsSnapshot:
        if self._monitor is None:
            # No event feed: nothing tells us what changed, so everything is
            # presumed dirty and curr is re-summed from live counters.
            self._dirty[:] = self._all_true
            self._any_dirty = True
            curr = sum(op.rows_produced for op in self._ops)
        else:
            curr = self._curr
        if self._any_dirty:
            self._root_visit(1.0, 1.0, True, True)
            self._dirty[:] = self._all_false
            self._any_dirty = False
        if self._caps:
            # Overlay post-step: intersect the static caps into a copy of
            # the per-node map (the memo keeps the pure paper2005 entries)
            # and re-sum.  fsum over the map's values equals fsum over the
            # totals lists — after the first visit the map has exactly one
            # entry per operator, holding the same floats.
            per_node = dict(self._per_node)
            self.last_refinements = apply_caps(
                per_node, self._caps, self._describe
            )
            lower = math.fsum(entry.lower for entry in per_node.values())
            upper = math.fsum(entry.upper for entry in per_node.values())
            lower = max(lower, float(curr))
            upper = max(upper, lower)
            snap = BoundsSnapshot.__new__(BoundsSnapshot)
            fields = snap.__dict__
            fields["curr"] = curr
            fields["lower"] = lower
            fields["upper"] = upper
            fields["per_node"] = per_node
            return snap
        # math.fsum is exactly rounded and therefore order-independent: the
        # incremental and reference trackers agree bit-for-bit even though
        # they accumulate per-node entries in different orders.
        lower = math.fsum(self._total_lo)
        upper = math.fsum(self._total_hi)
        # The work already done is itself a lower bound on the total.
        lower = max(lower, float(curr))
        upper = max(upper, lower)
        # A frozen dataclass funnels __init__ through object.__setattr__;
        # populating __dict__ directly halves the cost of this hot exit
        # path and yields an indistinguishable instance.
        snap = BoundsSnapshot.__new__(BoundsSnapshot)
        fields = snap.__dict__
        fields["curr"] = curr
        fields["lower"] = lower
        fields["upper"] = upper
        fields["per_node"] = dict(self._per_node)
        return snap

    def snapshot_full(self) -> BoundsSnapshot:
        """Force a full recompute (bypasses the dirty-set memo)."""
        self._dirty[:] = self._all_true
        self._any_dirty = True
        return self.snapshot()

    def dirty_flags(self) -> Tuple[bool, ...]:
        """The current dirty-flag vector (pre-order), for diagnostics and
        benchmark replay (see :meth:`restore_dirty`)."""
        return tuple(self._dirty)

    def restore_dirty(self, flags: Tuple[bool, ...]) -> None:
        """Restore a vector captured by :meth:`dirty_flags`.

        The end-to-end benchmark's snapshot-cost probe uses this to re-run
        the exact per-sample recompute several times at one paused instant:
        a second plain :meth:`snapshot` would be answered from the memo and
        measure nothing.
        """
        if len(flags) != self._count:
            raise ValueError("dirty-flag vector does not match this plan")
        self._dirty[:] = flags
        self._any_dirty = True in flags

    # -- visitors ------------------------------------------------------------------

    def _build_visitor(self, node: Operator) -> Callable:
        """Build the visitor closure for ``node`` (children first).

        The visitor wraps the node's derive rule with the memo check, the
        finished-subtree freeze and the total-bounds bookkeeping; all
        per-node state lives in closure cells or captured lists, so a visit
        touches no ``self``.

        Both visitors call the node's rule from :data:`RULES` with the
        children's visitors.  A node that :func:`standard_flags` marks can
        only ever be visited under the root context ``(1.0, 1.0, True,
        True)``, so its visitor passes that context as constants and its
        memo degenerates to the dirty bit.  Any other node (below a LIMIT,
        inside a ⋈NL inner) memoizes its context too.
        """
        i = self._idx[node.operator_id]
        static = self._statics[i]
        visits = tuple(self._build_visitor(child) for child in node.children)
        rule = RULES[node.kind]
        dirty = self._dirty
        ctx_valid = self._ctx_valid
        node_bounds = self._node_bounds
        per_node = self._per_node
        total_lo = self._total_lo
        total_hi = self._total_hi
        op_id = node.operator_id
        subtree = [
            (j, self._ops[j], self._ops[j].operator_id)
            for j in self._subtree_idx[i]
        ]

        def freeze() -> None:
            # A finished node is never pulled again, so nothing below it can
            # do further work either: freeze the whole subtree at its
            # current tick counts.  (This also nails the case of a finished
            # LIMIT whose descendants stopped mid-stream without finishing.)
            for j, sub_op, sub_id in subtree:
                ticks = float(sub_op.rows_produced)
                entry = node_bounds[j]
                if entry is None or entry.lower != ticks or entry.upper != ticks:
                    entry = NodeBounds.__new__(NodeBounds)
                    entry.__dict__["lower"] = ticks
                    entry.__dict__["upper"] = ticks
                    node_bounds[j] = entry
                    per_node[sub_id] = entry
                total_lo[j] = ticks
                total_hi[j] = ticks
                # The frozen entries bypass the memo bookkeeping; drop the
                # descendants' contexts so a later un-freeze (⋈NL rewind)
                # can never wrongly reuse pre-freeze memos.
                ctx_valid[j] = False

        if self._standard[op_id]:
            # memoized per-pass return: lower, upper
            memo_std = [0.0, 0.0]

            def visit(
                exec_lower: float,
                exec_upper: float,
                single_exec: bool,
                full_scan: bool,
            ) -> Tuple[float, float]:
                # The context is compile-time constant for this node, so a
                # clean subtree needs no context comparison at all.
                if not dirty[i] and ctx_valid[i]:
                    return memo_std[0], memo_std[1]
                if node.finished:
                    freeze()
                    lower = upper = float(node.rows_produced)
                else:
                    lower, upper = rule(
                        node, static, node.rows_produced, True, True,
                        1.0, 1.0, visits,
                    )
                ticks = float(node.rows_produced)
                # Folded from max(lower * 1.0, ticks): `max` returns its
                # first argument on ties, so the conditional is
                # value-identical.
                total_lower = lower if lower >= ticks else ticks
                total_upper = upper if upper >= total_lower else total_lower
                entry = node_bounds[i]
                if (
                    entry is None
                    or entry.lower != total_lower
                    or entry.upper != total_upper
                ):
                    entry = NodeBounds.__new__(NodeBounds)
                    entry.__dict__["lower"] = total_lower
                    entry.__dict__["upper"] = total_upper
                    node_bounds[i] = entry
                    per_node[op_id] = entry
                total_lo[i] = total_lower
                total_hi[i] = total_upper
                ctx_valid[i] = True
                memo_std[0] = lower
                memo_std[1] = upper
                return lower, upper

            self._visitors[i] = visit
            return visit

        # memoized context and per-pass return: el, eu, se, fs, lower, upper
        memo = [0.0, 0.0, False, False, 0.0, 0.0]

        def visit(
            exec_lower: float,
            exec_upper: float,
            single_exec: bool,
            full_scan: bool,
        ) -> Tuple[float, float]:
            if (
                not dirty[i]
                and ctx_valid[i]
                and memo[0] == exec_lower
                and memo[1] == exec_upper
                and memo[2] == single_exec
                and memo[3] == full_scan
            ):
                # Nothing in this subtree changed and it executes under the
                # same context: the memoized per-pass bounds and every
                # per-node entry below are still exact.
                return memo[4], memo[5]
            if single_exec and node.finished:
                freeze()
                lower = upper = float(node.rows_produced)
            else:
                lower, upper = rule(
                    node, static, node.rows_produced if single_exec else 0,
                    single_exec, full_scan, exec_lower, exec_upper, visits,
                )
            ticks = float(node.rows_produced)
            total_lower = max(lower * exec_lower, ticks)
            total_upper = max(upper * exec_upper, total_lower)
            entry = node_bounds[i]
            if (
                entry is None
                or entry.lower != total_lower
                or entry.upper != total_upper
            ):
                entry = NodeBounds.__new__(NodeBounds)
                entry.__dict__["lower"] = total_lower
                entry.__dict__["upper"] = total_upper
                node_bounds[i] = entry
                per_node[op_id] = entry
            total_lo[i] = total_lower
            total_hi[i] = total_upper
            ctx_valid[i] = True
            memo[0] = exec_lower
            memo[1] = exec_upper
            memo[2] = single_exec
            memo[3] = full_scan
            memo[4] = lower
            memo[5] = upper
            return lower, upper

        self._visitors[i] = visit
        return visit


class ReferenceBoundsTracker:
    """Full-recompute oracle: re-walks the plan through :data:`RULES` and
    re-resolves statistics on every snapshot.

    It has no memo, dirty set or freeze, so the equivalence tests hold it
    as the ground truth for the incremental tracker's.
    """

    def __init__(
        self,
        plan: Plan,
        catalog: Optional[Catalog] = None,
        bounds: Optional[Sequence[str]] = None,
    ) -> None:
        self.plan = plan
        self.catalog = catalog
        self.providers, self._caps, self._describe = _compose(
            plan, catalog, bounds
        )
        self.last_refinements: List[BoundRefinement] = []

    def snapshot(self) -> BoundsSnapshot:
        per_node: Dict[int, NodeBounds] = {}
        self._visit(per_node, self.plan.root, 1.0, 1.0, True, True)
        curr = sum(op.rows_produced for op in self.plan.operators())
        if self._caps:
            self.last_refinements = apply_caps(
                per_node, self._caps, self._describe
            )
        lower = math.fsum(bounds.lower for bounds in per_node.values())
        upper = math.fsum(bounds.upper for bounds in per_node.values())
        # The work already done is itself a lower bound on the total.
        lower = max(lower, float(curr))
        upper = max(upper, lower)
        return BoundsSnapshot(curr, lower, upper, per_node)

    def _visit(
        self,
        out: Dict[int, NodeBounds],
        node: Operator,
        exec_lower: float,
        exec_upper: float,
        single_exec: bool,
        full_scan: bool,
    ) -> Tuple[float, float]:
        produced = node.rows_produced if single_exec else 0
        if node.finished and single_exec:
            for descendant in node.walk():
                if descendant is node:
                    continue
                ticks = float(descendant.rows_produced)
                out[descendant.operator_id] = NodeBounds(ticks, ticks)
            lower = upper = float(produced)
        else:
            visits = tuple(
                functools.partial(self._visit, out, child)
                for child in node.children
            )
            lower, upper = RULES[node.kind](
                node, _static_payload(node, self.catalog), produced,
                single_exec, full_scan, exec_lower, exec_upper, visits,
            )
        ticks = float(node.rows_produced)
        total_lower = max(lower * exec_lower, ticks)
        total_upper = max(upper * exec_upper, total_lower)
        out[node.operator_id] = NodeBounds(total_lower, total_upper)
        return lower, upper
