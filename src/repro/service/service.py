"""The concurrent query service: admission, execution, live progress.

:class:`QueryService` turns the single-threaded evaluation stack into an
online service shaped like König et al.'s robust-progress setting: many
queries in flight, each observable while it runs.

* **Admission** — a bounded queue in front of a fixed worker pool.  A full
  queue is backpressure: ``submit`` either raises
  :class:`repro.errors.AdmissionError` immediately or blocks for a grace
  period, caller's choice.  A plan *object* can be in flight at most once
  (operators hold runtime state), and SQL text is planned at admission.
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
* **Observability** — the service emits structured
  :class:`~repro.core.observe.ProgressEvent`\\ s (``query_queued`` /
  ``query_start`` / ``query_degraded`` / ``query_end``, the last carrying
  the run's :class:`~repro.core.observe.RunProfile`) into ordinary
  progress-event sinks, so service traffic feeds the same JSONL/analysis
  tooling as single runs.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

from repro.core.estimators import ProgressEstimator, standard_toolkit
from repro.core.observe import (
    ForwardingSink,
    ProgressEvent,
    ProgressEventSink,
    emit_to_all,
)
from repro.core.runner import ProgressRunner, RunnerProbe
from repro.engine.plan import Plan
from repro.errors import AdmissionError, QueryCancelled, QueryTimeout
from repro.options import ExecutionOptions
from repro.service.handle import QueryHandle, QueryState, cancelled_error
from repro.service.monitor import FirstPaintPending, ServiceExecutionMonitor
from repro.service.procpool import (
    CatalogSpec,
    ProcessPool,
    encode_query,
)
from repro.service.resilient import ResilientEstimator
from repro.storage.catalog import Catalog

_STOP = object()

#: finished queries a long-lived service (and the server's scheduler in
#: front of it) still remembers; older ones are forgotten, with their
#: buffered frames, sealed trace and plan
RETAINED_FINISHED = 256

Query = Union[Plan, str]


class QueryService:
    """A bounded worker pool executing monitored queries concurrently."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        *,
        options: Optional[ExecutionOptions] = None,
        max_workers: Optional[int] = None,
        queue_depth: Optional[int] = None,
        toolkit_factory: Callable[[], List[ProgressEstimator]] = standard_toolkit,
        engine: Optional[str] = None,
        bounds: Optional[Sequence[str]] = None,
        backend: Optional[str] = None,
        start_method: Optional[str] = None,
        catalog_spec: Optional[CatalogSpec] = None,
        target_samples: Optional[int] = None,
        default_deadline: Optional[float] = None,
        sinks: Sequence[ProgressEventSink] = (),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise AdmissionError("max_workers must be >= 1")
        if queue_depth is not None and queue_depth < 1:
            raise AdmissionError("queue_depth must be >= 1")
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
        queue_depth = self.options.queue_depth
        self.sinks = list(sinks)
        self._clock = clock
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._lock = threading.Lock()
        self._closed = False
        self._next_id = 1
        self._seq = 0
        self._started_at = clock()
        self._handles: Dict[int, QueryHandle] = {}
        #: ids of finished queries, oldest first (see RETAINED_FINISHED)
        self._finished: Deque[int] = deque()
        #: streams still owed a first estimate; every monitor reads it
        self.first_paint = FirstPaintPending()
        self._active_plan_ids: set = set()
        self._stats: Dict[str, int] = {
            "submitted": 0, "rejected": 0,
            "done": 0, "cancelled": 0, "failed": 0, "timed_out": 0,
        }
        self._pool: Optional[ProcessPool] = None
        if self.backend == "process":
            # The pool starts its worker processes from this (still
            # single-threaded) constructor, then its shepherd threads
            # consume self._queue exactly like the thread workers below.
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
        name: Optional[str] = None,
        estimators: Optional[Sequence[ProgressEstimator]] = None,
        deadline: Optional[float] = None,
        target_samples: Optional[int] = None,
        sinks: Sequence[ProgressEventSink] = (),
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> QueryHandle:
        """Admit one query; returns immediately with its handle.

        ``query`` is a :class:`Plan` or SQL text (planned against the
        service's catalog).  ``deadline`` is seconds of execution time
        granted once a worker picks the query up; ``estimators`` overrides
        the service's toolkit for this query.  ``sinks`` are per-query
        event sinks receiving this query's live cadence samples
        (``kind == "sample"`` only — the same stream on either backend;
        the network tier's WebSocket bridge rides on this).  When the
        admission queue is full, ``block=False`` raises
        :class:`AdmissionError` at once and ``block=True`` waits up to
        ``timeout`` seconds first.
        """
        plan = self._plan_for(query, name)
        wire = None
        if self.backend == "process":
            # Pickle at admission so an unpicklable plan or estimator is a
            # crisp AdmissionError for the submitter, not a FAILED query.
            try:
                wire = encode_query(plan, estimators, self.catalog)
            except Exception as exc:
                with self._lock:
                    self._stats["rejected"] += 1
                raise AdmissionError(
                    "query %r cannot cross the process boundary "
                    "(pickling failed: %s: %s); use picklable estimators "
                    "and plans, or backend='thread'"
                    % (name or plan.name, type(exc).__name__, exc)
                ) from exc
        with self._lock:
            if self._closed:
                raise AdmissionError("service is shut down")
            if id(plan) in self._active_plan_ids:
                raise AdmissionError(
                    "plan %r is already queued or running; submit a fresh "
                    "plan object per in-flight query (operators hold "
                    "runtime state)" % (plan.name,)
                )
            query_id = self._next_id
            self._next_id += 1
            handle = QueryHandle(query_id, name or plan.name, plan)
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
            handle._wire = wire
            self._active_plan_ids.add(id(plan))
            self._handles[query_id] = handle
            self._stats["submitted"] += 1
        try:
            self._queue.put(handle, block=block, timeout=timeout)
        except queue.Full:
            with self._lock:
                self._stats["submitted"] -= 1
                self._stats["rejected"] += 1
                self._active_plan_ids.discard(id(plan))
                del self._handles[query_id]
            raise AdmissionError(
                "admission queue is full (%d pending); retry later or "
                "submit with block=True" % (self._queue.maxsize,)
            ) from None
        self._emit("query_queued", handle)
        return handle

    def _plan_for(self, query: Query, name: Optional[str]) -> Plan:
        if isinstance(query, Plan):
            return query
        if isinstance(query, str):
            if self.catalog is None:
                raise AdmissionError(
                    "submitting SQL text requires a service catalog"
                )
            from repro.sql import plan_query

            return plan_query(query, self.catalog, name=name or "service-sql")
        raise AdmissionError("query must be a Plan or SQL text, not %r"
                             % (type(query).__name__,))

    # -- execution ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                self._execute(item)
            finally:
                self._queue.task_done()

    def _begin(self, handle: QueryHandle) -> bool:
        """Shared start-of-execution transition (thread worker or shepherd).

        Returns False — with the handle finalized CANCELLED — when the
        query was cancelled while queued; the caller must still run its
        end-of-execution path (:meth:`_finish`).
        """
        if not handle._mark_running():
            handle._finalize(
                QueryState.CANCELLED, error=cancelled_error(handle)
            )
            return False
        self._emit("query_start", handle)
        if handle.deadline_seconds is not None:
            handle.deadline_at = self._clock() + handle.deadline_seconds
        return True

    def _record_degraded(self, handle: QueryHandle, estimator_name: str,
                         reason: str) -> None:
        handle.degraded[estimator_name] = reason
        self._emit("query_degraded", handle, payload_extra={
            "estimator": estimator_name, "reason": reason,
        })

    def _finish(self, handle: QueryHandle) -> None:
        """Shared end-of-execution accounting (thread worker or shepherd)."""
        with self._lock:
            self._active_plan_ids.discard(id(handle.plan))
            self._stats[handle.state.value] = (
                self._stats.get(handle.state.value, 0) + 1
            )
            self._finished.append(handle.query_id)
            if len(self._finished) > RETAINED_FINISHED:
                del self._handles[self._finished.popleft()]
        self._emit("query_end", handle)

    def _execute(self, handle: QueryHandle) -> None:
        try:
            if not self._begin(handle):
                return

            def on_degrade(estimator_name: str, reason: str) -> None:
                self._record_degraded(handle, estimator_name, reason)

            toolkit = handle._estimators
            probe_toolkit: Optional[List[ProgressEstimator]] = None
            if toolkit is None:
                toolkit = self.toolkit_factory()
                # The probe toolkit is a second, independent instance set:
                # on-demand samples must not advance any stateful trace
                # estimator between cadence points.
                probe_toolkit = self.toolkit_factory()
            wrapped = [ResilientEstimator(e, on_degrade) for e in toolkit]

            def on_probe(probe: RunnerProbe) -> None:
                # The probe's monitor is the instrumented-pass monitor; its
                # lock is the one every recording path already takes.
                handle._attach_probe(probe, probe.monitor.lock)

            # Per-query sinks see exactly what crosses the pipe on the
            # process backend: cadence samples, nothing else — so a
            # subscriber's stream is backend-independent.
            runner_sinks: List[ProgressEventSink] = [_HandleSink(handle)]
            if handle._sinks:
                runner_sinks.append(ForwardingSink(
                    lambda event: emit_to_all(handle._sinks, event),
                    kinds=("sample",),
                ))
            runner = ProgressRunner(
                handle.plan,
                wrapped,
                self.catalog,
                target_samples=handle._target_samples,
                sinks=tuple(runner_sinks),
                engine=self.engine,
                bounds=self.bounds,
                monitor_factory=lambda: ServiceExecutionMonitor(
                    handle, self._clock, self.first_paint
                ),
                on_probe=on_probe,
                probe_estimators=probe_toolkit,
            )
            try:
                report = runner.run()
            except QueryCancelled as exc:
                handle._finalize(QueryState.CANCELLED, error=exc)
            except QueryTimeout as exc:
                handle._finalize(QueryState.TIMED_OUT, error=exc)
            except Exception as exc:
                handle._finalize(QueryState.FAILED, error=exc)
            else:
                handle._finalize(QueryState.DONE, report=report)
        except Exception as exc:  # pragma: no cover - worker must survive
            handle._finalize(QueryState.FAILED, error=exc)
        finally:
            handle._detach_probe()
            self._finish(handle)

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
        with self._lock:
            seq = self._seq
            self._seq += 1
        emit_to_all(self.sinks, ProgressEvent(
            seq=seq,
            kind=kind,
            plan=handle.plan.name,
            elapsed_seconds=self._clock() - self._started_at,
            curr=latest.curr if latest else 0.0,
            total=0.0,
            actual=latest.actual if latest else 0.0,
            lower_bound=latest.lower_bound if latest else 0.0,
            upper_bound=latest.upper_bound if latest else 0.0,
            estimates=dict(latest.estimates) if latest else {},
            payload=payload,
        ))

    # -- inspection & lifecycle ----------------------------------------------------

    def handles(self) -> List[QueryHandle]:
        """Unfinished handles plus the most recent ``RETAINED_FINISHED``
        finished ones, in submission order."""
        with self._lock:
            return list(self._handles.values())

    def stats(self) -> Dict[str, int]:
        with self._lock:
            counts = dict(self._stats)
        counts["pending"] = self._queue.qsize()
        return counts

    def cancel_all(self) -> int:
        """Request cancellation of every non-terminal query."""
        return sum(1 for handle in self.handles() if handle.cancel())

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted query is terminal."""
        deadline = None if timeout is None else self._clock() + timeout
        for handle in self.handles():
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - self._clock())
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
        """Stop admitting, optionally cancel in-flight work, join workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if cancel_pending:
            self.cancel_all()
        for _ in self._workers:
            self._queue.put(_STOP)
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


class _HandleSink(ProgressEventSink):
    """Publishes the runner's cadence samples onto the query handle.

    The estimates dict an event carries *is* the dict the trace's sample at
    the same instant holds, so handle-published samples match trace entries
    by construction — except for the label: live samples carry
    ``actual=None`` (truth is back-filled at seal time), and the runner's
    adaptive cadence may later decimate some published instants out of the
    sealed trace.  On DONE the handle republishes the labeled final sample.
    """

    def __init__(self, handle: QueryHandle) -> None:
        self.handle = handle

    def emit(self, event: ProgressEvent) -> None:
        if event.kind == "sample":
            self.handle._publish(event)
