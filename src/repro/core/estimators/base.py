"""Progress-estimator interface (§2.4).

An estimator maps an :class:`Observation` — everything it is *allowed* to
see: the getnext trace so far, runtime cardinality bounds derived from it
plus catalog statistics, the pipeline structure, and optimizer estimates —
to a progress value in [0, 1].  It never sees ``total(Q)``; that oracle
lives only in the evaluation harness.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.core.bounds import BoundsSnapshot
from repro.core.pipelines import Pipeline, PipelineState
from repro.engine.plan import Plan
from repro.errors import DegenerateBoundsError

T = TypeVar("T")


@dataclass
class Observation:
    """A snapshot of what an estimator may legally observe at one instant.

    It is also the *single per-instant state*: the pipeline walk
    (:attr:`pipeline_states`) and the answers of the parameter-free
    estimators (:meth:`shared`) are computed once and memoised here, so
    every estimator of a toolkit — top-level, inside a hybrid, inside the
    robust pool — and the event sinks read the same figures.  The memo
    belongs to this object and dies with it: build a fresh observation for
    every instant, never carry one across ticks.
    """

    #: counted getnext calls so far (``Curr``)
    curr: int
    #: runtime cardinality bounds (``LB``/``UB`` summed over the plan)
    bounds: BoundsSnapshot
    #: pipeline decomposition with live driver state
    pipelines: List[Pipeline]
    #: optimizer per-operator output estimates (no guarantees attached)
    estimates: Optional[Dict[int, float]] = None
    #: total tuples consumed so far from scanned leaves (μ̂'s denominator)
    leaf_input_consumed: int = 0
    _shared: Optional[Dict[Callable, object]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def shared(self, compute: Callable[["Observation"], T]) -> T:
        """``compute(self)``, evaluated at most once per observation.

        For anything that is a pure function of the observation — the
        pipeline walk, the answers of dne, pmax and safe: whichever
        estimator instance asks first pays, the rest read.
        """
        shared = self._shared
        if shared is None:
            shared = self._shared = {}
        try:
            return shared[compute]
        except KeyError:
            value = shared[compute] = compute(self)
            return value

    @property
    def pipeline_states(self) -> List[PipelineState]:
        """Every pipeline's driver state, walked once per observation."""
        return self.shared(_pipeline_states)

    @property
    def pipeline_weights(self) -> List[float]:
        """dne's share weight of every pipeline, computed on first use."""
        return self.shared(_pipeline_weights)


def _pipeline_states(observation: Observation) -> List[PipelineState]:
    estimates = observation.estimates
    return [pipeline.state(estimates) for pipeline in observation.pipelines]


def _pipeline_weights(observation: Observation) -> List[float]:
    estimates = observation.estimates
    return [pipeline.weight(estimates) for pipeline in observation.pipelines]


class ProgressEstimator(abc.ABC):
    """Base class for all progress estimators."""

    #: short identifier used in traces, tables and plots
    name: str = "estimator"

    def prepare(self, plan: Plan) -> None:
        """Optional one-time hook before execution starts."""

    @abc.abstractmethod
    def estimate(self, observation: Observation) -> float:
        """Point estimate of the progress, in [0, 1]."""

    def interval(self, observation: Observation) -> Tuple[float, float]:
        """Interval guarantee; defaults to the degenerate point interval."""
        value = self.estimate(observation)
        return value, value

    def event_extras(self) -> Optional[Dict[str, object]]:
        """Structured extras describing the *last* estimate, for event sinks.

        Combining estimators override this to expose which candidate they
        preferred and with what weights; the runner attaches the result to
        each sample event's payload (and emits an ``estimator_selected``
        event when the selection changes).  ``None`` — the default — means
        "nothing to report" and costs nothing.

        Sinks encode a payload once per *object*: returning the same dict
        again says "unchanged", so a returned dict must never be mutated
        afterwards — build a new one when the report changes.
        """
        return None

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.name)


def clamp_progress(value: float) -> float:
    """Progress estimates live in [0, 1] (NaN, like anything ≤ 0, is 0)."""
    if value > 0.0:
        return value if value < 1.0 else 1.0
    return 0.0


def degenerate_reason(curr: float, bounds: BoundsSnapshot) -> Optional[str]:
    """Why these bounds cannot constrain an estimate, or None if they can.

    Degenerate cases: a non-positive or infinite UB, a non-positive LB, an
    inverted pair (``UB < LB``), or bounds stale below ``Curr``.  The clamp
    path (:func:`progress_interval`) survives all of them by widening to the
    unconstrained interval; strict estimators instead surface them as a
    typed :class:`repro.errors.DegenerateBoundsError` so a supervising
    service can degrade the toolkit precisely.
    """
    if bounds.upper <= 0:
        return "upper bound is not positive"
    if bounds.upper == float("inf"):
        return "upper bound is infinite"
    if bounds.lower <= 0:
        return "lower bound is not positive"
    if bounds.upper < bounds.lower:
        return "bounds are inverted (UB < LB)"
    if curr > bounds.upper:
        return "bounds are stale (Curr beyond UB)"
    return None


def require_sound_bounds(curr: float, bounds: BoundsSnapshot) -> None:
    """Raise :class:`DegenerateBoundsError` unless the bounds can constrain.

    The raise path behind every ``strict=True`` estimator.
    """
    reason = degenerate_reason(curr, bounds)
    if reason is not None:
        raise DegenerateBoundsError(reason, curr, bounds.lower, bounds.upper)


def progress_interval(curr: float, bounds: BoundsSnapshot) -> Tuple[float, float]:
    """The sound progress interval ``[Curr/UB, Curr/LB]``, degenerate-safe.

    Since ``LB ≤ total(Q) ≤ UB``, the true progress lies in that interval.
    Degenerate bounds must not invert it: a zero or infinite UB contributes
    no floor (low = 0), a zero LB no ceiling (high = 1), and if the inputs
    are inconsistent (``UB < LB``, or ``Curr`` beyond a stale bound) the
    endpoints are reordered so that ``low ≤ high`` always holds.
    """
    low = 0.0
    if bounds.upper > 0 and bounds.upper != float("inf"):
        low = clamp_progress(curr / bounds.upper)
    high = 1.0
    if bounds.lower > 0:
        high = clamp_progress(curr / bounds.lower)
    if low > high:
        low, high = high, low
    return low, high
