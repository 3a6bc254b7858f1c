"""The progress runner: execute a plan while sampling every estimator.

Supports both models of work from §2.2: the GetNext model (default) and the
bytes-processed model — pass a :class:`repro.core.workmodels.WorkModel`; all
quantities (Curr, LB, UB, the true progress) are then expressed in weighted
units, with the estimator formulas unchanged.

Evaluation protocol (the one behind every figure and table in the paper):

1. run the plan **once**, with an observer that every few ticks assembles an
   :class:`Observation` (Curr, runtime bounds, pipeline state) and records
   each estimator's answer;
2. when the run completes, its own final counter *is* the oracle
   ``total(Q)`` (§2.2 — total work is the number of getnext calls the run
   performs, a deterministic property of the plan), so the
   :class:`TraceBuilder` back-fills ``actual = curr / total`` over the raw
   samples and seals them into a :class:`ProgressTrace`.

The estimators never see the truth; it is only attached to samples after
the fact.  Because ``total(Q)`` is unknown *during* the run, the sampling
cadence cannot be derived from it: instead it is seeded from the static
lower bound on total work (the scanned input cardinality — µ's
denominator) and doubles geometrically whenever the retained sample count
outgrows ~2× ``target_samples``, decimating already-taken samples down to
the multiples of the new cadence.  Samples forced by pipeline-boundary
transitions and the terminal sample are pinned and never decimated.

The instrumented run is wired for efficiency and observability: the
:class:`~repro.core.bounds.BoundsTracker` is attached to the monitor's event
stream (so each sample re-derives bounds only for subtrees that changed),
blocking-operator transitions force a sample via the monitor's
pipeline-boundary hook, every estimator call is wall-time profiled into a
:class:`~repro.core.observe.RunProfile`, and structured
:class:`~repro.core.observe.ProgressEvent`\\ s stream to any attached sinks
(e.g. a :class:`~repro.core.observe.JsonlTraceWriter`).

What a run derives from the plan before its first tick — optimizer
estimates, pipelines, the bounds tracker's static payloads and visitors,
the scanned leaves, the pipeline-boundary set, and on the fused engine
the generated program — is built once per plan object (:func:`prepare`,
the program on the first fused run) and kept on the plan until the
catalog, the bound-provider stack or the plan's input sizes change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.bounds import BoundsTracker
from repro.core.estimators.base import Observation, ProgressEstimator
from repro.core.metrics import ProgressTrace, TraceSample
from repro.core.model import scanned_input_cardinality
from repro.core.observe import (
    PipelineSnapshot,
    ProgressEvent,
    ProgressEventSink,
    RunProfile,
    emit_to_all,
)
from repro.core.pipelines import Pipeline, PipelineState, decompose
from repro.engine.executor import pipeline_boundary_operators, run_root
from repro.engine.monitor import EVENT_TICK, ExecutionMonitor
from repro.engine.operators.base import ExecutionContext
from repro.engine.plan import Plan
from repro.errors import ProgressError
from repro.options import ExecutionOptions
from repro.stats.estimate import CardinalityEstimator
from repro.storage.catalog import Catalog


class TraceBuilder:
    """Accumulates raw samples during a run; labels truth at seal time.

    The builder is the single-pass protocol's answer to "how do you sample
    ~``target_samples`` evenly when total work is unknown?": it starts at a
    cadence seeded from the static lower bound on ``total(Q)`` and, every
    time the retained unpinned samples exceed ``2 × target_samples``,
    doubles the cadence and decimates — keeping exactly the samples whose
    tick is a multiple of the new cadence.  Because each cadence is twice
    the previous one, every retained tick was sampled under *all* earlier
    cadences, so the surviving set is indistinguishable from one recorded
    at the final cadence from the start.  Pinned samples (pipeline-boundary
    forced rounds, the terminal sample) always survive.
    """

    def __init__(self, target_samples: int, initial_cadence: int) -> None:
        self.cadence = max(1, initial_cadence)
        self._retain_limit = max(2, 2 * target_samples)
        self._samples: List[TraceSample] = []
        self._ticks: List[int] = []
        self._pinned: List[bool] = []
        self._loose = 0  # retained samples that decimation may drop

    @property
    def last(self) -> Optional[TraceSample]:
        return self._samples[-1] if self._samples else None

    def __len__(self) -> int:
        return len(self._samples)

    def add(self, sample: TraceSample, tick: int, pinned: bool) -> bool:
        """Record one raw sample; returns True if the cadence just doubled."""
        self._samples.append(sample)
        self._ticks.append(tick)
        self._pinned.append(pinned)
        if pinned:
            return False
        self._loose += 1
        if self._loose <= self._retain_limit:
            return False
        self._decimate()
        return True

    def _decimate(self) -> None:
        self.cadence *= 2
        cadence = self.cadence
        keep = [
            pinned or tick % cadence == 0
            for tick, pinned in zip(self._ticks, self._pinned)
        ]
        self._samples = [s for s, k in zip(self._samples, keep) if k]
        self._ticks = [t for t, k in zip(self._ticks, keep) if k]
        self._pinned = [p for p, k in zip(self._pinned, keep) if k]
        self._loose = len(self._pinned) - sum(self._pinned)

    def seal(self, total: float) -> ProgressTrace:
        """Back-fill every ``actual`` label and freeze the trace.

        ``total`` is the run's own final work counter.  The terminal sample
        is labeled exactly 1.0 — float noise in weighted models can leave
        ``curr / total`` a hair off at the end of the run, and the terminal
        instant is at progress 1 by definition.
        """
        labeled: List[TraceSample] = []
        final_index = len(self._samples) - 1
        for index, sample in enumerate(self._samples):
            if index == final_index:
                actual = 1.0
            elif total:
                actual = min(sample.curr / total, 1.0)
            else:
                actual = 1.0
            labeled.append(TraceSample(
                curr=sample.curr,
                actual=actual,
                estimates=sample.estimates,
                lower_bound=sample.lower_bound,
                upper_bound=sample.upper_bound,
            ))
        return ProgressTrace(total=total, samples=labeled)


@dataclass
class ProgressReport:
    """Everything one instrumented run produced."""

    plan_name: str
    total: float
    mu: Optional[float]
    trace: ProgressTrace
    #: name of the work model the quantities are expressed in
    work_model: str = "getnext"
    #: wall-time accounting of the run and its instrumentation
    profile: Optional[RunProfile] = None

    def summary(self) -> Dict[str, Dict[str, float]]:
        return self.trace.summary()


class PreparedPlan:
    """Everything :meth:`ProgressRunner.run` derives from a plan before its
    first tick that the run itself cannot change.

    Built by :func:`prepare` and stored on the plan, so the next run of the
    same plan object starts sampling without re-deriving it.  ``key``
    names every input the analysis reads (see :func:`prepare`); the
    tracker's runtime state is reset by :meth:`BoundsTracker.attach` at
    the start of every run, the pipelines read their operators' live
    counters, and the fused program is bound to each run's monitor and
    released after it, so nothing here carries one run into the next.
    """

    __slots__ = (
        "key", "estimates", "pipelines", "tracker", "scanned_leaf_ids",
        "scanned_input", "boundaries", "program",
    )

    def __init__(
        self,
        plan: Plan,
        catalog: Optional[Catalog],
        bounds: Tuple[str, ...],
        key: Tuple[object, ...],
    ) -> None:
        self.key = key
        #: optimizer estimates per operator id (None without a catalog)
        self.estimates: Optional[Dict[int, float]] = (
            CardinalityEstimator(catalog).estimate_plan(plan)
            if catalog is not None
            else None
        )
        self.pipelines: List[Pipeline] = decompose(plan)
        self.tracker = BoundsTracker(plan, catalog, bounds=bounds)
        self.scanned_leaf_ids: FrozenSet[int] = frozenset(
            leaf.operator_id for leaf in plan.scanned_leaves()
        )
        #: µ's denominator and the seed of the sampling cadence
        self.scanned_input: int = scanned_input_cardinality(plan)
        self.boundaries: FrozenSet[int] = frozenset(
            pipeline_boundary_operators(plan)
        )
        #: the fused engine's drained program, generated on the first
        #: fused run (:func:`repro.engine.compiled.run_fused`)
        self.program: Optional[object] = None


def prepare(
    plan: Plan, catalog: Optional[Catalog], bounds: Tuple[str, ...]
) -> PreparedPlan:
    """The plan's prepared analysis for a run over ``catalog`` with the
    ``bounds`` stack: the one stored on the plan when its key still holds,
    otherwise a fresh one, which replaces it.

    The key is everything the analysis reads beyond the plan's structure:
    the catalog's fingerprint (identity, statistics version, row counts),
    the bound-provider stack, and the size of every row list the plan
    reads (tables outside the catalog and row sources included).
    """
    key = (
        catalog.fingerprint() if catalog is not None else None,
        bounds,
        plan.input_sizes(),
    )
    prepared = plan._prepared
    if prepared is None or prepared.key != key:
        prepared = plan._prepared = PreparedPlan(plan, catalog, bounds, key)
    return prepared


class ProgressRunner:
    """Runs plans under progress instrumentation.

    A runner is reusable: every :meth:`run` builds a fresh monitor,
    re-attaches the plan's bounds tracker (resetting its runtime state), and
    re-prepares the estimators; the static analysis comes from
    :func:`prepare`, built on a plan's first run.  ``clock`` is
    injectable (default :func:`time.perf_counter`) so profiling and the
    tick-rate/ETA gauges are deterministic under test.
    """

    def __init__(
        self,
        plan: Plan,
        estimators: Sequence[ProgressEstimator],
        catalog: Optional[Catalog] = None,
        target_samples: int = 200,
        work_model=None,
        sinks: Sequence[ProgressEventSink] = (),
        clock: Callable[[], float] = time.perf_counter,
        engine: Optional[str] = None,
        monitor_factory: Optional[Callable[[], ExecutionMonitor]] = None,
        bounds: Optional[Sequence[str]] = None,
    ) -> None:
        if not estimators:
            raise ProgressError("at least one estimator is required")
        names = [estimator.name for estimator in estimators]
        if len(set(names)) != len(names):
            raise ProgressError("estimator names must be unique: %s" % (names,))
        self.plan = plan
        self.estimators = list(estimators)
        self.catalog = catalog
        self.target_samples = max(1, target_samples)
        self.work_model = work_model
        self.sinks = list(sinks)
        self.clock = clock
        # None and $REPRO_ENGINE / $REPRO_BOUNDS both resolve in options.py
        options = ExecutionOptions(engine=engine, bounds=bounds).resolve()
        self.engine = options.engine
        #: bound-provider stack for the runtime bounds tracker
        self.bounds = options.bounds
        #: builds the run's monitor; the service injects one whose
        #: recording entry points check cancellation and deadlines
        self.monitor_factory = monitor_factory or ExecutionMonitor

    def run(self) -> ProgressReport:
        weighted = None
        if self.work_model is not None and self.work_model.name != "getnext":
            from repro.core.workmodels import WeightedWork

            weighted = WeightedWork(self.plan, self.work_model)

        prepared = prepare(self.plan, self.catalog, self.bounds)
        estimates = prepared.estimates
        pipelines = prepared.pipelines
        tracker = prepared.tracker
        scanned_leaf_ids = prepared.scanned_leaf_ids
        for estimator in self.estimators:
            estimator.prepare(self.plan)

        # The sampling policy is oracle-free: the initial cadence comes
        # from the static lower bound on total(Q) (the scanned input
        # cardinality — µ's denominator, a catalog quantity) and adapts
        # geometrically as the run outgrows it.
        builder = TraceBuilder(
            self.target_samples,
            initial_cadence=prepared.scanned_input // self.target_samples,
        )
        profile = RunProfile()
        clock = self.clock
        sinks = self.sinks
        model_name = self.work_model.name if self.work_model else "getnext"
        started_at = clock()
        # Incremental μ̂-denominator: counting leaf ticks as they happen
        # avoids re-summing leaf counters on every sample.
        leaf_consumed = [0]
        seq = [0]

        def on_tick(operator_id: int, event: str, n: int) -> None:
            if event == EVENT_TICK and operator_id in scanned_leaf_ids:
                leaf_consumed[0] += n

        def emit(kind: str, curr: float, actual: Optional[float],
                 estimate_values: Dict[str, float],
                 lower: float, upper: float,
                 snapshots=(), event_total: Optional[float] = None,
                 payload: Optional[Dict[str, object]] = None) -> None:
            if not sinks:
                return
            elapsed = clock() - started_at
            rate = curr / elapsed if elapsed > 0 and curr > 0 else None
            eta = None
            interval = (None, None)
            if rate is not None:
                primary = (
                    estimate_values.get(self.estimators[0].name)
                    if estimate_values
                    else None
                )
                if primary:
                    eta = max(0.0, curr / primary - curr) / rate
                interval = (
                    max(0.0, lower - curr) / rate,
                    max(0.0, upper - curr) / rate,
                )
            # Field order as declared; populating __dict__ directly skips
            # the frozen dataclass's fifteen object.__setattr__ calls.
            event = ProgressEvent.__new__(ProgressEvent)
            event.__dict__.update(
                seq=seq[0],
                kind=kind,
                plan=self.plan.name,
                elapsed_seconds=elapsed,
                curr=curr,
                total=event_total,
                actual=actual,
                lower_bound=lower,
                upper_bound=upper,
                estimates=estimate_values,
                pipelines=snapshots,
                ticks_per_second=rate,
                eta_seconds=eta,
                eta_interval_seconds=interval,
                payload=payload,
            )
            emit_to_all(sinks, event)
            seq[0] += 1

        # Last reported "selected" candidate per combining estimator, so
        # selection *changes* (not every sample) become events.
        last_selected: Dict[str, object] = {}
        last_payload: List[Optional[Dict[str, object]]] = [None]
        kept_states: List[Optional[PipelineState]] = [None] * len(pipelines)
        kept_snapshots: List[Optional[PipelineSnapshot]] = (
            [None] * len(pipelines)
        )
        # Overlay refinements are re-applied on every snapshot; announce
        # each (operator, provider) pair once per run.
        announced_refinements: set = set()

        def emit_refinements(
            curr: float, estimate_values: Dict[str, float],
            lower: float, upper: float,
        ) -> None:
            for refinement in tracker.last_refinements:
                key = (refinement.operator_id, refinement.provider)
                if key in announced_refinements:
                    continue
                announced_refinements.add(key)
                emit(
                    "bound_refined", curr, None, estimate_values,
                    lower, upper,
                    payload={
                        "operator_id": refinement.operator_id,
                        "operator": refinement.operator,
                        "provider": refinement.provider,
                        "upper_before": refinement.upper_before,
                        "upper_after": refinement.upper_after,
                    },
                )

        def collect_extras(
            curr: float, estimate_values: Dict[str, float],
            lower: float, upper: float,
        ) -> Optional[Dict[str, object]]:
            extras: Dict[str, object] = {}
            for estimator in self.estimators:
                detail = estimator.event_extras()
                if detail is None:
                    continue
                extras[estimator.name] = detail
                selected = detail.get("selected")
                if selected is None:
                    continue
                if last_selected.get(estimator.name) != selected:
                    last_selected[estimator.name] = selected
                    emit(
                        "estimator_selected", curr, None,
                        estimate_values, lower, upper,
                        payload={"estimator": estimator.name, **detail},
                    )
            # The same payload object for as long as every estimator hands
            # back the same extras: sinks key the encoded text on it.
            previous = last_payload[0]
            if previous is not None:
                kept = previous["estimators"]
                if len(kept) == len(extras) and all(
                    kept.get(name) is detail
                    for name, detail in extras.items()
                ):
                    return previous
            payload = last_payload[0] = (
                {"estimators": extras} if extras else None
            )
            return payload

        def snapshots_of(
            states: Sequence[PipelineState],
        ) -> Tuple[PipelineSnapshot, ...]:
            """One snapshot per *distinct* state: sinks see the same object
            until the pipeline's state tuple changes."""
            for position, state in enumerate(states):
                if state != kept_states[position]:
                    kept_states[position] = state
                    kept_snapshots[position] = PipelineSnapshot.of(state)
            return tuple(kept_snapshots)

        def sample(monitor: ExecutionMonitor, final: bool = False) -> None:
            sample_started = clock()
            tick = monitor.total_ticks
            snapshot = tracker.snapshot()
            if weighted is not None:
                curr = weighted.current()
                snapshot = weighted.weighted_bounds(snapshot)
            else:
                curr = tick
            # A fresh observation per sample: its memoised pipeline state
            # must not outlive the instant.
            observation = Observation(
                curr=curr,
                bounds=snapshot,
                pipelines=pipelines,
                estimates=estimates,
                leaf_input_consumed=leaf_consumed[0],
            )
            estimate_values: Dict[str, float] = {}
            for estimator, estimator_profile in estimator_profiles:
                call_started = clock()
                estimate_values[estimator.name] = (
                    estimator.estimate(observation)
                )
                estimator_profile.record(clock() - call_started)
            lower = snapshot.lower
            upper = snapshot.upper
            # Truth is unknown until the run completes; seal() labels the
            # retained samples from the final counter.
            actual = 1.0 if final else None
            raw = TraceSample(
                curr=curr,
                actual=actual,
                estimates=estimate_values,
                lower_bound=lower,
                upper_bound=upper,
            )
            # Boundary-forced rounds are pinned against decimation, even
            # when they coincide with a cadence multiple — blocking-operator
            # transitions must survive into the sealed trace.
            if builder.add(raw, tick, final or monitor.forced_notification):
                monitor.set_observer_cadence(sample, builder.cadence)
            profile.samples += 1
            if sinks:
                # Per-pipeline snapshots are real work per sample; only
                # build them when someone is listening.  Extras are
                # collected first so a selection change is announced before
                # the sample that exhibits it.
                emit_refinements(curr, estimate_values, lower, upper)
                payload = collect_extras(curr, estimate_values, lower, upper)
                emit(
                    "sample", curr, actual, estimate_values, lower, upper,
                    snapshots_of(observation.pipeline_states),
                    payload=payload,
                )
            profile.sample_seconds += clock() - sample_started

        monitor = self.monitor_factory()
        monitor.mark_pipeline_boundaries(prepared.boundaries)
        monitor.add_batch_listener(on_tick)
        tracker.attach(monitor)
        monitor.add_observer(sample, every=builder.cadence)
        estimator_profiles = [
            (estimator, profile.profile_for(estimator.name))
            for estimator in self.estimators
        ]
        emit("run_start", 0.0, 0.0, {}, 0.0, 0.0)
        context = ExecutionContext(monitor)
        try:
            # The product of the run is its trace: the root keeps no rows.
            run_root(self.plan.root, context, self.engine, keep_rows=False,
                     prepared=prepared)
            final_curr = (
                weighted.current() if weighted is not None
                else float(monitor.total_ticks)
            )
            last = builder.last
            if last is None or last.curr != final_curr:
                sample(monitor, final=True)
        except BaseException:
            # Aborted runs (cancellation, deadline, operator failure) must
            # still release their sinks — a JSONL writer left open would
            # leak the handle for the rest of a service's life.
            for sink in sinks:
                sink.close()
            raise
        finally:
            # Success or abort, the run lets go of the monitor: a monitor
            # that outlives it (one the caller's factory keeps) must not
            # keep this run's closures alive.  The operators dropped their context —
            # their way to the monitor — when the engine closed them.
            tracker.detach()
            monitor.remove_batch_listener(on_tick)
            monitor.remove_observer(sample)
        # The run is complete: its own counters are the oracle.  Truth
        # labels, total(Q), and µ all come from these end-of-run quantities.
        final_ticks = monitor.total_ticks
        total: float = (
            weighted.current() if weighted is not None else float(final_ticks)
        )
        trace = builder.seal(total)
        # µ = total work per scanned input tuple; undefined with none.
        mu_value: Optional[float] = (
            final_ticks / prepared.scanned_input
            if prepared.scanned_input else None
        )
        profile.elapsed_seconds = clock() - started_at
        profile.ticks = final_ticks
        final = trace.samples[-1]
        emit("run_end", final.curr, final.actual, final.estimates,
             final.lower_bound, final.upper_bound, event_total=total)
        for sink in sinks:
            sink.close()
        return ProgressReport(self.plan.name, total, mu_value, trace,
                              model_name, profile)


def run_with_estimators(
    plan: Plan,
    estimators: Sequence[ProgressEstimator],
    catalog: Optional[Catalog] = None,
    target_samples: int = 200,
    sinks: Sequence[ProgressEventSink] = (),
    engine: Optional[str] = None,
    bounds: Optional[Sequence[str]] = None,
) -> ProgressReport:
    """One-call convenience wrapper around :class:`ProgressRunner`."""
    return ProgressRunner(
        plan, estimators, catalog, target_samples, sinks=sinks, engine=engine,
        bounds=bounds,
    ).run()
