"""Runtime lower/upper bounds on operator cardinalities (§5.1).

At any instant during execution the :class:`BoundsTracker` computes, for
every operator, guaranteed bounds on the *total* number of counted getnext
calls that operator will have performed by the end of the query.  Summed
over the plan, these give ``LB`` and ``UB`` with the invariant

    Curr ≤ LB ≤ total(Q) ≤ UB

which pmax (``Curr/LB``) and safe (``Curr/√(LB·UB)``) consume directly.

The package splits along the provider seam:

* :mod:`repro.core.bounds.model` — :class:`NodeBounds`,
  :class:`BoundsSnapshot`, :class:`BoundRefinement`;
* :mod:`repro.core.bounds.paper2005` — the paper's §5.1 rule set, one
  function per operator kind for any execution context
  (:data:`~repro.core.bounds.paper2005.RULES`), which both trackers call;
* :mod:`repro.core.bounds.providers` — the :class:`BoundProvider`
  protocol, the registry (:func:`provider_names`, :func:`make_provider`,
  :func:`resolve_providers`) and the composition layer that intersects
  overlay providers' static per-node caps;
* :mod:`repro.core.bounds.degree_seq` — the ``degree_seq`` overlay:
  degree-sequence and Lp-norm join bounds from catalog degree statistics;
* :mod:`repro.core.bounds.tracker` — the incremental
  :class:`BoundsTracker` and the full-recompute
  :class:`ReferenceBoundsTracker`.

With the default stack (``bounds=["paper2005"]``) the trackers behave
exactly as the pre-split monolith did — same rules, same floats, same
snapshot code path.
"""

from repro.core.bounds.model import BoundRefinement, BoundsSnapshot, NodeBounds
from repro.core.bounds.providers import (
    DEFAULT_BOUNDS,
    BoundProvider,
    Paper2005Provider,
    make_provider,
    provider_names,
    resolve_providers,
)
from repro.core.bounds.tracker import BoundsTracker, ReferenceBoundsTracker

__all__ = [
    "BoundProvider",
    "BoundRefinement",
    "BoundsSnapshot",
    "BoundsTracker",
    "DEFAULT_BOUNDS",
    "NodeBounds",
    "Paper2005Provider",
    "ReferenceBoundsTracker",
    "make_provider",
    "provider_names",
    "resolve_providers",
]
