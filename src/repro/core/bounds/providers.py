"""The pluggable bound-provider stack: protocol, registry, composition.

A :class:`BoundProvider` contributes per-node ``(lb, ub)`` bounds on a
node's *total* counted getnext calls.  ``paper2005`` — the paper's §5.1
rule set — is the recursive base every stack must contain; every other
provider is an *overlay*: it states static per-node bounds at construction
time and the trackers intersect them with the paper bounds at snapshot
time (tightest lower and upper bound win, with a soundness guard that
never lets the intersection invert ``LB ≤ UB``).

Incremental-maintenance contract: a provider declares how its
contributions behave during a run via ``maintenance``:

* ``"recursive"`` — the provider is the tracker-native rule set
  (``paper2005`` only; executed by the compiled visitors);
* ``"static"`` — contributions are fixed at construction and never change
  while the query runs, so the incremental tracker's dirty-set memo stays
  valid with the overlay applied as a snapshot post-step.

Only these two contracts exist; the trackers reject anything else rather
than silently produce stale bounds.

Overlay bounds apply only to nodes that provably execute under the
standard context (one full scan — see
:func:`repro.engine.plan.standard_flags`): there a node's total
equals its single-pass output, so a sound cardinality bound on the output
is a sound bound on the total.  A provider with nothing sound to say about
a node returns ``None`` ("no opinion") — never ``(0, inf)`` noise; if a
requested provider has no opinion on an entire plan that contains join
nodes, composition emits a one-time :func:`~repro.core.observe.warn_once`
so silent degradation (missing or stale statistics) is visible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bounds.model import BoundRefinement, NodeBounds
from repro.core.bounds.paper2005 import (
    _HASH_JOIN,
    _INL_JOIN,
    _MERGE_JOIN,
    _NL_JOIN,
    _classify,
)
from repro.core.observe import warn_once
from repro.engine.operators.base import Operator
from repro.engine.plan import Plan, standard_flags
from repro.errors import BoundsConfigError
from repro.storage.catalog import Catalog

#: the default stack: the paper's own rules, nothing stacked on top
DEFAULT_BOUNDS: Tuple[str, ...] = ("paper2005",)

#: maintenance contracts the trackers understand
MAINTENANCE_CONTRACTS = ("recursive", "static")

#: dispatch tags of operators an overlay provider could possibly tighten
_JOIN_KINDS = (_HASH_JOIN, _MERGE_JOIN, _INL_JOIN, _NL_JOIN)


class BoundProvider:
    """One source of per-node ``(lb, ub)`` total-getnext bounds."""

    #: registry name (``bounds=["paper2005", ...]`` selects by it)
    name: str = ""
    #: incremental-maintenance contract (see module docstring)
    maintenance: str = "static"

    def node_bounds(
        self, node: Operator, catalog: Optional[Catalog]
    ) -> Optional[Tuple[Optional[float], Optional[float]]]:
        """Static bounds on ``node``'s total output, or None for no opinion.

        Either element may be None (no opinion on that side).  Called once
        per standard-context node at tracker construction; must not depend
        on runtime state.
        """
        raise NotImplementedError


class Paper2005Provider(BoundProvider):
    """The paper's §5.1 rule set, as a named registry entry.

    The trackers execute these rules natively (compiled per-node visitors /
    the reference interpreter); this class exists so the default stack is
    expressed in the same vocabulary as its overlays.  ``node_bounds`` is
    never consulted.
    """

    name = "paper2005"
    maintenance = "recursive"

    def node_bounds(
        self, node: Operator, catalog: Optional[Catalog]
    ) -> Optional[Tuple[Optional[float], Optional[float]]]:
        return None


def _registry():
    # Deferred: degree_seq imports repro.stats.degree, keep the registry
    # import-light until a provider is actually requested.
    from repro.core.bounds.degree_seq import DegreeSequenceProvider

    return {
        Paper2005Provider.name: Paper2005Provider,
        DegreeSequenceProvider.name: DegreeSequenceProvider,
    }


def provider_names() -> List[str]:
    """All registered bound-provider names, sorted."""
    return sorted(_registry())


def make_provider(name: str) -> BoundProvider:
    """Instantiate a registered provider by name."""
    factory = _registry().get(name)
    if factory is None:
        raise BoundsConfigError(
            "unknown bound provider %r (choose from: %s)"
            % (name, ", ".join(provider_names()))
        )
    return factory()


def resolve_providers(
    bounds: Optional[Sequence[str]],
) -> Tuple[BoundProvider, ...]:
    """Validate a ``bounds=`` stack and instantiate its providers.

    ``None`` means the default stack.  The stack must be non-empty, free of
    duplicates, contain only registered names, and include ``paper2005``
    (overlays tighten the recursive base; they cannot replace it).
    """
    names = tuple(bounds) if bounds is not None else DEFAULT_BOUNDS
    if not names:
        raise BoundsConfigError("bounds must name at least one provider")
    if len(set(names)) != len(names):
        raise BoundsConfigError("duplicate bound providers: %s" % (list(names),))
    if Paper2005Provider.name not in names:
        raise BoundsConfigError(
            "bounds must include %r (overlay providers tighten the paper "
            "rules, they do not replace them)" % (Paper2005Provider.name,)
        )
    providers = tuple(make_provider(name) for name in names)
    for provider in providers:
        if provider.maintenance not in MAINTENANCE_CONTRACTS:
            raise BoundsConfigError(
                "provider %r declares unknown maintenance contract %r "
                "(supported: %s)"
                % (provider.name, provider.maintenance, MAINTENANCE_CONTRACTS)
            )
    return providers


def compose_caps(
    plan: Plan,
    catalog: Optional[Catalog],
    providers: Iterable[BoundProvider],
    tolerate_missing: bool = True,
) -> Dict[int, Tuple[Optional[float], Optional[float], str]]:
    """Intersect the overlay providers' static opinions per node.

    Returns ``operator_id -> (lb, ub, provider)`` where ``provider`` names
    the overlay whose upper bound won the intersection (tightest bound
    wins on each side independently).  Only standard-context nodes are
    consulted — see the module docstring for why.
    """
    overlays = [p for p in providers if p.maintenance == "static"]
    if not overlays:
        return {}
    flags = standard_flags(plan.root)
    has_joins = any(
        _classify(node) in _JOIN_KINDS for node in plan.operators()
    )
    caps: Dict[int, Tuple[Optional[float], Optional[float], str]] = {}
    opinionated = set()
    for node in plan.operators():
        if not flags[node.operator_id]:
            continue
        best_lb: Optional[float] = None
        best_ub: Optional[float] = None
        best_name = ""
        for provider in overlays:
            opinion = provider.node_bounds(node, catalog)
            if opinion is None:
                continue
            opinionated.add(provider.name)
            lb, ub = opinion
            if lb is not None and (best_lb is None or lb > best_lb):
                best_lb = float(lb)
            if ub is not None and (best_ub is None or ub < best_ub):
                best_ub = float(ub)
                best_name = provider.name
        if best_lb is not None or best_ub is not None:
            caps[node.operator_id] = (best_lb, best_ub, best_name)
    if tolerate_missing and has_joins:
        for provider in overlays:
            if provider.name not in opinionated:
                warn_once(
                    "bounds-provider-degraded:%s" % (provider.name,),
                    "bound provider %r has no opinion on this plan "
                    "(missing or stale degree statistics?); falling back "
                    "to the paper2005 bounds alone" % (provider.name,),
                )
    return caps


def apply_caps(
    per_node: Dict[int, NodeBounds],
    caps: Dict[int, Tuple[Optional[float], Optional[float], str]],
    describe: Dict[int, str],
) -> List[BoundRefinement]:
    """Intersect static caps into ``per_node`` (mutated in place).

    Tightest bound wins on each side; the soundness guard never lets the
    intersection invert ``LB ≤ UB`` — a (hypothetically unsound) cap that
    would push UB below LB is clamped back to LB, so downstream consumers
    keep the invariant ``Curr ≤ LB ≤ UB`` whatever a provider said.
    Returns the refinements actually applied (upper bound tightened), for
    the ``bound_refined`` observability event.
    """
    refinements: List[BoundRefinement] = []
    for op_id, (cap_lb, cap_ub, provider) in caps.items():
        entry = per_node.get(op_id)
        if entry is None:
            continue
        lower, upper = entry.lower, entry.upper
        new_lower = lower if (cap_lb is None or cap_lb <= lower) else cap_lb
        new_upper = upper if (cap_ub is None or cap_ub >= upper) else cap_ub
        if new_upper < new_lower:
            new_upper = new_lower
        if new_lower != lower or new_upper != upper:
            per_node[op_id] = NodeBounds(new_lower, new_upper)
            if new_upper < upper:
                refinements.append(
                    BoundRefinement(
                        operator_id=op_id,
                        operator=describe.get(op_id, ""),
                        provider=provider,
                        upper_before=upper,
                        upper_after=new_upper,
                    )
                )
    return refinements
