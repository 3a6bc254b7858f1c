"""The concurrent query service: admission, execution, live progress.

:class:`QueryService` turns the single-threaded evaluation stack into an
online service shaped like König et al.'s robust-progress setting: many
queries in flight, each observable while it runs.

* **Admission** — one :class:`~repro.service.admission.AdmissionQueue` in
  front of a fixed worker pool: per-tenant FIFOs served by deficit round
  robin; a tenant without a ``quotas`` entry gets ``queue_depth`` places
  and ``max_workers`` workers, i.e. a plain bounded FIFO.  A full FIFO is
  backpressure: ``submit`` raises
  :class:`~repro.service.admission.TenantThrottled` at once or after a
  grace period, caller's choice.  A plan *object* can be in flight at most
  once (operators hold runtime state); SQL text is planned at admission, a
  zero-argument plan factory by the worker that takes the query.
* **Execution** — each worker drives the standard instrumented runner
  (one monitored execution per query, truth labeled at completion —
  identical to a solo :class:`~repro.core.runner.ProgressRunner` run), so
  a completed query's trace is bit-identical to its single-threaded trace.
  The runner's monitor is a
  :class:`~repro.service.monitor.ServiceExecutionMonitor`: cancellation
  and deadlines are honoured at tick-batch boundaries — in one place,
  since there is only one pass.
* **Backends** — ``backend="thread"`` (default) runs queries on in-process
  worker threads: concurrent, but GIL-serialized.  ``backend="process"``
  runs each query in a worker *process* (see
  :mod:`repro.service.procpool`) for real CPU parallelism; handles,
  cancellation, deadlines, live sampling and traces behave identically.
  ``$REPRO_BACKEND`` overrides the default, mirroring ``$REPRO_ENGINE``.
* **Progress** — cadence samples are published to the query's handle as
  they are taken, and a lock-scoped probe lets any thread sample a running
  query's dne/pmax/safe on demand without racing the executor.
* **Robustness** — trace estimators are wrapped in
  :class:`~repro.service.resilient.ResilientEstimator`: an estimator that
  raises (including a strict toolkit's typed
  :class:`~repro.errors.DegenerateBoundsError`) degrades to safe for the
  rest of that run; the query itself is never killed by its estimator.
* **Observability** — one emitter, one ``seq``: the service emits
  structured :class:`~repro.core.observe.ProgressEvent`\\ s
  (``query_queued`` / ``tenant_throttled`` / ``tenant_admitted`` /
  ``query_start`` / ``query_degraded`` / ``query_end``, the last carrying
  the run's :class:`~repro.core.observe.RunProfile`) into ordinary
  progress-event sinks, so service traffic feeds the same JSONL/analysis
  tooling as single runs.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.estimators import ProgressEstimator, standard_toolkit
from repro.core.observe import (
    ForwardingSink,
    ProgressEvent,
    ProgressEventSink,
    emit_to_all,
)
from repro.core.runner import ProgressRunner, RunnerProbe
from repro.engine.plan import Plan
from repro.errors import AdmissionError
from repro.options import ExecutionOptions
from repro.service.admission import (  # RETAINED_FINISHED: re-exported
    RETAINED_FINISHED,
    AdmissionQueue,
    TenantQuota,
)
from repro.service.handle import (
    QueryHandle,
    QueryState,
    cancelled_error,
    run_outcome,
)
from repro.service.monitor import (
    FirstPaintPending,
    ServiceExecutionMonitor,
    handle_control,
)
from repro.service.procpool import (
    CatalogSpec,
    ProcessPool,
    encode_query,
)
from repro.service.resilient import ResilientEstimator
from repro.storage.catalog import Catalog

Query = Union[Plan, str, Callable[[], Plan]]


class QueryService:
    """A bounded worker pool executing monitored queries concurrently."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        *,
        options: Optional[ExecutionOptions] = None,
        max_workers: Optional[int] = None,
        queue_depth: Optional[int] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        toolkit_factory: Callable[[], List[ProgressEstimator]] = standard_toolkit,
        engine: Optional[str] = None,
        bounds: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
        start_method: Optional[str] = None,
        catalog_spec: Optional[CatalogSpec] = None,
        target_samples: Optional[int] = None,
        default_deadline: Optional[float] = None,
        sinks: Sequence[ProgressEventSink] = (),
    ) -> None:
        # One resolution step: an explicit keyword beats the base options
        # object, which beats $REPRO_* and the built-in fallbacks.
        self.options = (options or ExecutionOptions()).merged(
            engine=engine,
            bounds=bounds,
            backend=backend,
            start_method=start_method,
            max_workers=max_workers,
            queue_depth=queue_depth,
            target_samples=target_samples,
        ).resolve()
        self.catalog = catalog
        self.toolkit_factory = toolkit_factory
        self.engine = self.options.engine
        self.bounds = self.options.bounds
        self.backend = self.options.backend
        #: how spawn-started workers re-open the catalog; None means "ship
        #: the catalog pickled" (irrelevant under fork and the thread backend)
        self.catalog_spec = catalog_spec
        self.target_samples = self.options.target_samples
        self.default_deadline = default_deadline
        max_workers = self.options.max_workers
        self.sinks = list(sinks)
        self._seq = itertools.count()
        self._started_at = time.monotonic()
        #: a tenant without a quota of its own gets a plain bounded FIFO
        self.admission = AdmissionQueue(
            TenantQuota(max_pending=self.options.queue_depth,
                        max_inflight=max_workers),
            quotas, emit=self._emit,
        )
        #: streams still owed a first estimate; every monitor reads it
        self.first_paint = FirstPaintPending()
        self._pool: Optional[ProcessPool] = None
        if self.backend == "process":
            # The pool starts its worker processes from this (still
            # single-threaded) constructor, then its shepherd threads take
            # from the admission queue exactly like the thread workers below.
            self._pool = ProcessPool(self, max_workers)
            self._workers = self._pool.threads
        else:
            self._workers = [
                threading.Thread(
                    target=self._worker_loop,
                    name="repro-query-worker-%d" % (i,),
                    daemon=True,
                )
                for i in range(max_workers)
            ]
            for worker in self._workers:
                worker.start()

    # -- admission ---------------------------------------------------------------

    def submit(
        self,
        query: Query,
        *,
        tenant: str = "default",
        name: Optional[str] = None,
        estimators: Optional[Sequence[ProgressEstimator]] = None,
        deadline: Optional[float] = None,
        target_samples: Optional[int] = None,
        sinks: Sequence[ProgressEventSink] = (),
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> QueryHandle:
        """Admit one query for ``tenant``; returns immediately with its
        handle.

        ``query`` is a :class:`Plan`, SQL text (planned against the
        service's catalog) or a zero-argument callable returning a fresh
        plan, which the worker that takes the query calls — a bad plan
        then fails the query instead of the submission.  ``deadline`` is
        seconds of execution time granted once a worker picks the query
        up; ``estimators`` overrides the service's toolkit for this query.
        ``sinks`` are per-query event sinks receiving this query's live
        cadence samples (``kind == "sample"`` only — the same stream on
        either backend; the network tier's WebSocket bridge rides on this).
        When the tenant's FIFO is full, ``block=False`` raises
        :class:`~repro.service.admission.TenantThrottled` at once and
        ``block=True`` waits up to ``timeout`` seconds first.
        """
        plan = self._plan_for(query, name)
        handle = QueryHandle(None, name or (plan and plan.name), plan)
        if plan is None:
            handle._factory = query
        elif self._pool is not None:
            # Pickle at admission so an unpicklable plan or estimator is a
            # crisp AdmissionError for the submitter, not a FAILED query.
            try:
                handle._wire = encode_query(plan, estimators, self.catalog)
            except Exception as exc:
                self.admission.reject()
                raise AdmissionError(
                    "query %r cannot cross the process boundary "
                    "(pickling failed: %s: %s); use picklable estimators "
                    "and plans, or backend='thread'"
                    % (name or plan.name, type(exc).__name__, exc)
                ) from exc
        handle.deadline_seconds = (
            deadline if deadline is not None else self.default_deadline
        )
        handle._target_samples = (
            target_samples if target_samples is not None
            else self.target_samples
        )
        handle._estimators = (
            list(estimators) if estimators is not None else None
        )
        handle._sinks = tuple(sinks)
        self.admission.put(handle, tenant, block=block, timeout=timeout)
        return handle

    def _plan_for(self, query: Query, name: Optional[str]) -> Optional[Plan]:
        """``query``'s plan now, or None for a factory (planned later)."""
        if isinstance(query, Plan):
            return query
        if isinstance(query, str):
            if self.catalog is None:
                raise AdmissionError(
                    "submitting SQL text requires a service catalog"
                )
            from repro.sql import plan_query

            return plan_query(query, self.catalog, name=name or "service-sql")
        if callable(query):
            return None
        raise AdmissionError(
            "query must be a Plan, SQL text or a plan factory, not %r"
            % (type(query).__name__,)
        )

    # -- execution ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            handle = self.admission.take()
            if handle is None:
                return
            self._execute(handle)

    def _begin(self, handle: QueryHandle) -> bool:
        """Shared start-of-execution transition (thread worker or shepherd).

        Plans a plan-later query, then marks it running.  Returns False —
        with the handle completed FAILED or CANCELLED — when planning failed
        or the query was cancelled before it could start.
        """
        try:
            if handle._factory is not None:
                self.admission.claim(handle, handle._factory())
            if self._pool is not None and handle._wire is None:
                handle._wire = encode_query(
                    handle.plan, handle._estimators, self.catalog
                )
        except Exception as exc:
            self.admission.complete(handle, QueryState.FAILED, error=exc)
            return False
        if not handle._mark_running():
            self.admission.complete(
                handle, QueryState.CANCELLED,
                error=cancelled_error(handle.name),
            )
            return False
        self._emit("query_start", handle)
        if handle.deadline_seconds is not None:
            handle.deadline_at = time.monotonic() + handle.deadline_seconds
        return True

    def _record_degraded(self, handle: QueryHandle, estimator_name: str,
                         reason: str) -> None:
        handle.degraded[estimator_name] = reason
        self._emit("query_degraded", handle, payload_extra={
            "estimator": estimator_name, "reason": reason,
        })

    def _execute(self, handle: QueryHandle) -> None:
        if not self._begin(handle):
            return

        def on_degrade(estimator_name: str, reason: str) -> None:
            self._record_degraded(handle, estimator_name, reason)

        def on_sample(event: ProgressEvent) -> None:
            # The handle's live sample carries the very estimates dict of
            # the trace entry at that instant (``actual`` stays None until
            # the seal labels it).  Per-query sinks see exactly what
            # crosses the pipe on the process backend: cadence samples.
            handle._publish(event)
            emit_to_all(handle._sinks, event)

        def on_probe(probe: RunnerProbe) -> None:
            # The probe's monitor is the instrumented-pass monitor; its
            # lock is the one every recording path already takes.
            handle._attach_probe(probe, probe.monitor.lock)

        def run():
            toolkit = handle._estimators
            probe_toolkit: Optional[List[ProgressEstimator]] = None
            if toolkit is None:
                toolkit = self.toolkit_factory()
                # The probe toolkit is a second, independent instance set:
                # on-demand samples must not advance any stateful trace
                # estimator between cadence points.
                probe_toolkit = self.toolkit_factory()
            wrapped = [ResilientEstimator(e, on_degrade) for e in toolkit]
            control = handle_control(handle, first_paint=self.first_paint)
            return ProgressRunner(
                handle.plan,
                wrapped,
                self.catalog,
                target_samples=handle._target_samples,
                sinks=(ForwardingSink(on_sample, kinds=("sample",)),),
                engine=self.engine,
                bounds=self.bounds,
                monitor_factory=lambda: ServiceExecutionMonitor(control),
                on_probe=on_probe,
                probe_estimators=probe_toolkit,
            ).run()

        try:
            state, report, error = run_outcome(run)
        finally:
            handle._detach_probe()
        self.admission.complete(handle, state, report=report, error=error)

    # -- observability -----------------------------------------------------------

    def _emit(
        self,
        kind: str,
        handle: QueryHandle,
        payload_extra: Optional[Dict[str, object]] = None,
    ) -> None:
        if not self.sinks:
            return
        payload: Dict[str, object] = {
            "query_id": handle.query_id,
            "query": handle.name,
            "tenant": handle.tenant,
            "state": handle.state.value,
        }
        if handle.degraded:
            payload["degraded"] = dict(handle.degraded)
        if handle.error is not None:
            payload["error"] = str(handle.error)
        if kind == "query_end" and handle.state is QueryState.DONE:
            report = handle.result(timeout=0)
            if report.profile is not None:
                payload["profile"] = report.profile.to_dict()
        if payload_extra:
            payload.update(payload_extra)
        latest = handle.progress()
        emit_to_all(self.sinks, ProgressEvent(
            seq=next(self._seq),
            kind=kind,
            plan=(handle.plan.name if handle.plan is not None
                  else handle.name or "?"),
            elapsed_seconds=time.monotonic() - self._started_at,
            curr=latest.curr if latest else 0.0,
            total=0.0,
            actual=latest.actual if latest else 0.0,
            lower_bound=latest.lower_bound if latest else 0.0,
            upper_bound=latest.upper_bound if latest else 0.0,
            estimates=dict(latest.estimates) if latest else {},
            payload=payload,
        ))

    # -- inspection & lifecycle ----------------------------------------------------

    def get(self, query_id: str) -> Optional[QueryHandle]:
        """An admitted query's handle, while it is retained."""
        return self.admission.get(query_id)

    def handles(self) -> List[QueryHandle]:
        """Unfinished handles plus the most recent ``RETAINED_FINISHED``
        finished ones, in submission order."""
        return self.admission.handles()

    def stats(self) -> Dict[str, int]:
        return self.admission.stats()

    def cancel_all(self) -> int:
        """Request cancellation of every non-terminal query."""
        return sum(1 for handle in self.handles() if handle.cancel())

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted query is terminal."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in self.handles():
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            if not handle.wait(remaining):
                return False
        return True

    def shutdown(
        self,
        *,
        cancel_pending: bool = True,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> None:
        """Stop admitting, optionally cancel queued and in-flight work,
        join workers."""
        if not self.admission.close(cancel_pending):
            return
        if cancel_pending:
            self.cancel_all()
        if wait:
            for worker in self._workers:
                worker.join(timeout)
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return "QueryService(%d %s workers, %s)" % (
            len(self._workers), self.backend, self.stats(),
        )
