"""Robust statistical estimator combination (König et al. 2012).

The source paper's §6.4 proves that picking the "right" estimator cannot be
done with guarantees (Theorems 7–8: μ cannot be estimated within any
factor, predictive orders cannot be recognized), so any combination is a
heuristic.  "A Statistical Approach Towards Robust Progress Estimation"
(König, Ding, Chaudhuri, Narasayya; arXiv:1201.0234) is the direct sequel:
keep a *pool* of candidate estimators, observe how each one actually
performs, and select or weight them online from those error statistics.

This module implements that idea on top of the existing toolkit:

* :class:`RobustHistory` — a bounded, thread-safe store of per-plan-
  signature, per-pipeline-segment error statistics for every candidate
  (EWMA of squared log-ratio residuals), plus the
  :class:`~repro.core.estimators.feedback.QueryHistory` of observed totals
  that the pool's feedback candidate consumes.  Residuals can only be
  labeled once a run's trace seals (truth is unknown mid-run under the
  single-pass protocol), so recording happens after the fact via
  :meth:`RobustHistory.record_run` — typically through
  :meth:`RobustEstimator.observe_result`.
* :class:`RobustEstimator` — maintains the full candidate pool (dne, pmax,
  safe, hybrid-mu, hybrid-var, feedback), clamps every candidate into the
  sound interval ``[Curr/UB, Curr/LB]``, and combines them per observation
  with weights derived from the history's statistics for the *current*
  pipeline segment (estimator behaviour changes at pipeline boundaries,
  not uniformly over a run).  With no history the combination collapses to
  the safe estimator exactly — the worst-case-optimal answer — and the
  final value is always re-clamped into the sound interval, so Theorem 6's
  guarantee territory is never left on the strength of a heuristic.

Robustness of the pool itself: a candidate that raises during ``prepare``
or ``estimate`` is degraded out of the pool for the rest of the run (the
same rule the service's :class:`~repro.service.resilient.ResilientEstimator`
applies to whole toolkit slots), and the remaining candidates carry on.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import SegmentObservation, aggregate_segment_residuals
from repro.core.estimators.base import (
    Observation,
    ProgressEstimator,
    clamp_progress,
    progress_interval,
    require_sound_bounds,
)
from repro.core.estimators.dne import DneEstimator
from repro.core.estimators.feedback import (
    FeedbackEstimator,
    QueryHistory,
    history_key,
    plan_signature,
)
from repro.core.estimators.hybrid import HybridMuEstimator, HybridVarianceEstimator
from repro.core.estimators.pmax import PmaxEstimator
from repro.core.estimators.safe import SafeEstimator
from repro.core.pipelines import current_state
from repro.engine.plan import Plan
from repro.errors import EstimatorConfigError, ProgressError

MODES = ("weight", "select")

#: segment key for "no pipeline is current" (before the first tick, and
#: after every pipeline finished)
NO_SEGMENT = -1

#: candidate key the combination falls back to when evidence is missing —
#: present in every default pool
SAFE_NAME = SafeEstimator.name

#: per-segment phase resolution of the error statistics: each segment's
#: samples are subdivided by which PHASES-ile of [0, 1] the truth fell in.
#: Estimator behaviour is strongly phase-dependent (pmax is off by the
#: whale-tuple factor *early* and exact late; dne's weights settle over
#: time), and whole-segment statistics would average that away — letting a
#: candidate that dominates a segment's bulk drag the combination off safe
#: during the segment's first samples, exactly where safe's √-guarantee is
#: hardest to beat.
PHASES = 8


@dataclass
class ErrorStat:
    """EWMA of squared log-ratio residuals for one (segment, candidate)."""

    mean_square: float
    observations: int

    def fold(self, mean_square: float, smoothing: float) -> None:
        self.mean_square = (
            smoothing * mean_square + (1 - smoothing) * self.mean_square
        )
        self.observations += 1


@dataclass(frozen=True)
class SelectionEvent:
    """One change of the robust combination's preferred candidate."""

    curr: float
    segment: int
    selected: str
    weights: Dict[str, float]
    mode: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "curr": self.curr,
            "segment": self.segment,
            "selected": self.selected,
            "weights": dict(self.weights),
            "mode": self.mode,
        }


class RobustHistory:
    """Cross-run error statistics per plan signature × segment × candidate.

    Bounded (LRU over signatures, like :class:`QueryHistory`) and locked:
    one history is shared by every run of a session and every worker of a
    service.  ``totals`` is the embedded :class:`QueryHistory` the pool's
    feedback candidate reads its expected totals from, so one object
    carries everything the robust estimator learns.
    """

    def __init__(
        self,
        smoothing: float = 0.5,
        max_signatures: int = 4096,
        min_actual: float = 0.01,
        totals: Optional[QueryHistory] = None,
        catalog: object = None,
    ) -> None:
        if not 0 < smoothing <= 1:
            raise EstimatorConfigError("smoothing must be in (0, 1]")
        if max_signatures < 1:
            raise EstimatorConfigError("max_signatures must be >= 1")
        self.smoothing = smoothing
        self.max_signatures = max_signatures
        self.min_actual = min_actual
        #: default catalog whose data fingerprint qualifies every key (a
        #: per-call ``catalog=`` beats it; None keys on shape alone)
        self.catalog = catalog
        self.totals = totals if totals is not None else QueryHistory(
            max_signatures=max_signatures, catalog=catalog
        )
        self._stats: "OrderedDict[str, Dict[int, Dict[str, ErrorStat]]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def record_run(
        self,
        plan: Plan,
        observations: Sequence[SegmentObservation],
        total: float,
        catalog: object = None,
    ) -> None:
        """Label one finished run's pool log against its sealed total.

        Statistics are keyed by ``segment × phase`` (see :data:`PHASES`);
        the phase is derived from the sealed truth here, and from the
        remembered total at estimation time.
        """
        self.totals.record(plan, int(total), catalog=catalog)
        residuals = aggregate_segment_residuals(
            observations, total, self.min_actual, phases=PHASES
        )
        if not residuals:
            return
        signature = self._key(plan, catalog)
        with self._lock:
            bucket = self._stats.get(signature)
            if bucket is None:
                while len(self._stats) >= self.max_signatures:
                    self._stats.popitem(last=False)
                bucket = self._stats[signature] = {}
            else:
                self._stats.move_to_end(signature)
            for segment, by_name in residuals.items():
                segment_stats = bucket.setdefault(segment, {})
                for name, values in by_name.items():
                    mean_square = sum(r * r for r in values) / len(values)
                    stat = segment_stats.get(name)
                    if stat is None:
                        segment_stats[name] = ErrorStat(mean_square, 1)
                    else:
                        stat.fold(mean_square, self.smoothing)

    def _key(self, plan: Plan, catalog: object) -> str:
        return history_key(
            plan, catalog if catalog is not None else self.catalog
        )

    def stats_for(
        self, plan: Plan, catalog: object = None
    ) -> Dict[int, Dict[str, Tuple[float, int]]]:
        """A snapshot of this signature's statistics (segment → name →
        (mean-square log residual, observation count))."""
        signature = self._key(plan, catalog)
        with self._lock:
            bucket = self._stats.get(signature)
            if bucket is None:
                return {}
            self._stats.move_to_end(signature)
            return {
                segment: {
                    name: (stat.mean_square, stat.observations)
                    for name, stat in by_name.items()
                }
                for segment, by_name in bucket.items()
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._stats)

    # Ships inside pickled RobustEstimators on the process backend; the
    # worker receives a copy (its updates do not flow back).
    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


def default_pool(
    history: RobustHistory, catalog: object = None
) -> List[ProgressEstimator]:
    """The full candidate pool of the robust combination."""
    return [
        DneEstimator(),
        PmaxEstimator(),
        SafeEstimator(),
        HybridMuEstimator(),
        HybridVarianceEstimator(),
        FeedbackEstimator(history.totals, catalog=catalog),
    ]


class RobustEstimator(ProgressEstimator):
    """Statistical candidate-pool combination, clamped into the sound
    interval.

    Per observation:

    1. identify the current pipeline segment;
    2. ask every (non-degraded) candidate for its estimate and clamp each
       into ``[Curr/UB, Curr/LB]``;
    3. weight candidates by the history's error statistics for this plan
       signature and segment — weight ∝ ``n/(n+1) / (ε + E[r²])``, an
       inverse-expected-squared-log-error rule, with the safe candidate
       guaranteed a floor weight so the pool never fully abandons the
       worst-case-optimal answer;
    4. combine: ``mode="weight"`` (default) takes the weighted geometric
       mean of the clamped candidates, ``mode="select"`` takes the
       highest-weighted candidate outright;
    5. re-clamp the result into the sound interval.

    With no statistics for the plan's signature every weight collapses
    onto safe, and the answer *is* the safe estimate — so a cold query
    costs nothing relative to the paper's recommended default, and warm
    queries spend the accumulated evidence.

    The run's pool log (segment, Curr, clamped candidate values per
    sample) is kept so the caller can label it once truth exists:
    ``estimator.observe_result(plan, report.total)`` after a finished run
    (the session facade and the sweep benchmark do exactly this).
    """

    name = "robust"

    def __init__(
        self,
        history: Optional[RobustHistory] = None,
        *,
        mode: str = "weight",
        epsilon: float = 1e-4,
        prior_error: float = 0.5,
        candidates: Optional[Sequence[ProgressEstimator]] = None,
        strict: bool = False,
        on_select: Optional[Callable[[SelectionEvent], None]] = None,
        on_degrade: Optional[Callable[[str, str], None]] = None,
        catalog: object = None,
    ) -> None:
        if mode not in MODES:
            raise EstimatorConfigError(
                "mode must be one of %s, not %r" % (MODES, mode)
            )
        if epsilon <= 0:
            raise EstimatorConfigError("epsilon must be > 0")
        if prior_error <= 0:
            raise EstimatorConfigError("prior_error must be > 0")
        self.history = history if history is not None else RobustHistory()
        self.mode = mode
        self.epsilon = epsilon
        self.prior_error = prior_error
        self.strict = strict
        self.on_select = on_select
        self.on_degrade = on_degrade
        #: catalog whose fingerprint qualifies this estimator's history keys
        self.catalog = catalog
        pool = (
            list(candidates) if candidates is not None
            else default_pool(self.history, catalog)
        )
        names = [candidate.name for candidate in pool]
        if len(set(names)) != len(names):
            raise EstimatorConfigError(
                "candidate names must be unique: %s" % (names,)
            )
        if SAFE_NAME not in names:
            raise EstimatorConfigError(
                "the pool must contain a %r candidate (the combination's "
                "fallback and weight floor)" % (SAFE_NAME,)
            )
        self._pool: Dict[str, ProgressEstimator] = {
            candidate.name: candidate for candidate in pool
        }
        #: candidate name → degradation reason, for this run
        self.degraded: Dict[str, str] = {}
        self._plan: Optional[Plan] = None
        self._expected: Optional[float] = None
        self._stats: Dict[int, Dict[str, Tuple[float, int]]] = {}
        self._pooled: Dict[str, Tuple[float, int]] = {}
        self._weight_cache: Dict[Optional[int], Dict[str, float]] = {}
        self._log: List[SegmentObservation] = []
        self._last_selected: Optional[str] = None
        self._last_weights: Dict[str, float] = {}
        self._last_segment: int = NO_SEGMENT
        #: what :meth:`event_extras` last built, until the selection moves
        self._extras: Optional[Dict[str, object]] = None

    # -- lifecycle ---------------------------------------------------------------

    def prepare(self, plan: Plan) -> None:
        self._plan = plan
        #: remembered total, the estimation-time proxy for the phase that
        #: record_run derived from the sealed truth
        self._expected = self.history.totals.expected_total(
            plan, catalog=self.catalog
        )
        self._stats = self.history.stats_for(plan, catalog=self.catalog)
        self._pooled = self._pool_segments(self._stats)
        self._weight_cache = {}
        self._log = []
        self.degraded = {}
        self._last_selected = None
        self._last_weights = {}
        self._last_segment = NO_SEGMENT
        self._extras = None
        for name, candidate in self._pool.items():
            try:
                candidate.prepare(plan)
            except Exception as exc:
                self._degrade(name, "prepare: %s: %s"
                              % (type(exc).__name__, exc))

    def observe_result(self, plan: Plan, total: float) -> None:
        """Label this run's pool log against the sealed total and fold it
        (and the total itself) into the shared history.

        History-backed candidates are relabelled retrospectively first: a
        cold feedback estimator spends the whole run falling back to safe,
        so its *logged* values describe safe, not what it will answer once
        the total is remembered.  Folding those raw values would forever
        anchor its error statistics to safe's and the combiner could never
        learn to trust it.  Candidates exposing ``retrospective_estimate``
        get their log rewritten to the estimate a warm repeat produces.
        """
        if self._plan is None:
            raise ProgressError(
                "observe_result() requires a prepared run (call prepare/"
                "run first)"
            )
        retrospective = {
            name: candidate.retrospective_estimate
            for name, candidate in self._pool.items()
            if hasattr(candidate, "retrospective_estimate")
        }
        if retrospective:
            for _, curr, values in self._log:
                for name, estimate in retrospective.items():
                    if name in values:
                        values[name] = estimate(curr, total)
        self.history.record_run(plan, self._log, total, catalog=self.catalog)
        self._log = []

    # -- estimation --------------------------------------------------------------

    def estimate(self, observation: Observation) -> float:
        if self.strict:
            require_sound_bounds(observation.curr, observation.bounds)
        low, high = progress_interval(observation.curr, observation.bounds)
        current = current_state(observation.pipeline_states)
        segment = current.pipeline.index if current is not None else NO_SEGMENT
        values: Dict[str, float] = {}
        for name, candidate in self._pool.items():
            if name in self.degraded:
                continue
            try:
                raw = candidate.estimate(observation)
            except Exception as exc:
                self._degrade(name, "%s: %s" % (type(exc).__name__, exc))
                continue
            values[name] = clamp_progress(min(max(raw, low), high))
        self._log.append((segment, observation.curr, values))
        if not values:
            # Every candidate degraded (safe included): answer from the
            # sound interval's midpoint, which is total by construction.
            return clamp_progress((low + high) / 2.0)
        key: Optional[int] = None
        if self._expected and self._expected > 0 and segment != NO_SEGMENT:
            phase = min(
                int(observation.curr / self._expected * PHASES), PHASES - 1
            )
            key = segment * PHASES + phase
        weights = self._weights_for(key, values)
        selected = max(weights, key=lambda name: (weights[name], name))
        if self.mode == "select":
            value = values[selected]
        else:
            value = self._geometric(values, weights)
        self._note_selection(observation.curr, segment, selected, weights)
        return clamp_progress(min(max(value, low), high))

    def interval(self, observation: Observation) -> Tuple[float, float]:
        """The robust answer carries exactly the sound-interval guarantee."""
        return progress_interval(observation.curr, observation.bounds)

    # -- introspection -----------------------------------------------------------

    def event_extras(self) -> Optional[Dict[str, object]]:
        """The same dict (treat it as read-only) for as long as selected,
        segment, weights and degraded stand: sinks key their encoded
        payload on its identity."""
        if self._last_selected is None:
            return None
        extras = self._extras
        if extras is None:
            extras = self._extras = {
                "selected": self._last_selected,
                "segment": self._last_segment,
                "weights": dict(self._last_weights),
                "mode": self.mode,
            }
            if self.degraded:
                extras["degraded"] = dict(self.degraded)
        return extras

    @property
    def last_selected(self) -> Optional[str]:
        return self._last_selected

    @property
    def last_weights(self) -> Dict[str, float]:
        return dict(self._last_weights)

    # -- internals ---------------------------------------------------------------

    def _degrade(self, name: str, reason: str) -> None:
        self.degraded[name] = reason
        self._weight_cache = {}
        self._extras = None
        if self.on_degrade is not None:
            self.on_degrade(name, reason)

    def _note_selection(
        self, curr: float, segment: int, selected: str,
        weights: Dict[str, float],
    ) -> None:
        changed = selected != self._last_selected
        # _weights_for answers from its cache: the same dict while the
        # (segment, phase) cell and the candidate set stand.
        if (changed or segment != self._last_segment
                or weights is not self._last_weights):
            self._extras = None
        self._last_selected = selected
        self._last_weights = weights
        self._last_segment = segment
        if changed and self.on_select is not None:
            self.on_select(SelectionEvent(
                curr=curr, segment=segment, selected=selected,
                weights=dict(weights), mode=self.mode,
            ))

    @staticmethod
    def _pool_segments(
        stats: Dict[int, Dict[str, Tuple[float, int]]],
    ) -> Dict[str, Tuple[float, int]]:
        """Aggregate per-segment stats into one per-candidate summary —
        the backoff for segments this signature has no evidence on (e.g.
        a pipeline the previous run's cadence never sampled)."""
        pooled: Dict[str, List[Tuple[float, int]]] = {}
        for by_name in stats.values():
            for name, (mean_square, count) in by_name.items():
                pooled.setdefault(name, []).append((mean_square, count))
        combined: Dict[str, Tuple[float, int]] = {}
        for name, entries in pooled.items():
            total_count = sum(count for _, count in entries)
            weighted = sum(
                mean_square * count for mean_square, count in entries
            )
            combined[name] = (weighted / total_count, total_count)
        return combined

    def _weights_for(
        self, key: Optional[int], values: Dict[str, float]
    ) -> Dict[str, float]:
        """``key`` is the encoded segment × phase (None: no phase proxy —
        unknown remembered total — so fall back to the pooled stats)."""
        cached = self._weight_cache.get(key)
        if cached is None:
            stats = self._stats.get(key) if key is not None else None
            if not stats:
                stats = self._pooled
            cached = self._compute_weights(stats)
            self._weight_cache[key] = cached
        if all(name in values for name in cached):
            return cached
        # A weighted candidate degraded mid-run: renormalize the rest.
        available = {
            name: weight for name, weight in cached.items() if name in values
        }
        if not available:
            fallback = SAFE_NAME if SAFE_NAME in values else next(iter(values))
            return {fallback: 1.0}
        mass = sum(available.values())
        return {name: weight / mass for name, weight in available.items()}

    #: a candidate must beat safe's mean-square log error by this factor in
    #: a (segment, phase) cell before it earns any weight there.  The
    #: departure from worst-case optimality is *selective*, not additive:
    #: mixing in a same-quality-as-safe candidate can only add noise, and a
    #: cell where nothing clearly beats safe answers exactly as safe.
    BETTER_FACTOR = 0.5

    def _compute_weights(
        self, stats: Dict[str, Tuple[float, int]]
    ) -> Dict[str, float]:
        usable = {
            name: stat for name, stat in stats.items()
            if name in self._pool and name not in self.degraded
        }
        if not usable:
            return {SAFE_NAME: 1.0}
        # Baseline to beat: safe's recorded error in this cell (its prior
        # error when unrecorded).
        safe_baseline = self.prior_error ** 2
        if SAFE_NAME in usable:
            safe_baseline = min(safe_baseline, usable[SAFE_NAME][0])
        raw: Dict[str, float] = {}
        for name, (mean_square, count) in usable.items():
            if name != SAFE_NAME and (
                mean_square > safe_baseline * self.BETTER_FACTOR
            ):
                continue
            reliability = count / (count + 1.0)
            raw[name] = reliability / (self.epsilon + mean_square)
        # The safe candidate keeps a floor derived from the prior error:
        # evidence must *earn* a departure from worst-case optimality.
        prior = 1.0 / (self.epsilon + self.prior_error ** 2)
        if SAFE_NAME not in self.degraded:
            raw[SAFE_NAME] = max(raw.get(SAFE_NAME, 0.0), prior)
        if not raw:
            return {next(iter(usable)): 1.0}
        mass = sum(raw.values())
        return {name: weight / mass for name, weight in raw.items()}

    @staticmethod
    def _geometric(
        values: Dict[str, float], weights: Dict[str, float]
    ) -> float:
        """Log-space convex combination over the positive candidates."""
        positive = {
            name: value for name, value in values.items()
            if name in weights and value > 0
        }
        if not positive:
            return 0.0
        if len(positive) == 1:
            # Exact pass-through: exp(log(v)) would perturb the last ulp,
            # and "all weight on safe" must mean *bit-identical to safe*.
            return next(iter(positive.values()))
        mass = sum(weights[name] for name in positive)
        if mass <= 0:
            return 0.0
        log_value = sum(
            weights[name] * math.log(value)
            for name, value in positive.items()
        ) / mass
        return math.exp(log_value)
