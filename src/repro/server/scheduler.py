"""Per-tenant admission quotas and deficit-round-robin fair dispatch.

The query service's admission queue is a single FIFO: one tenant bursting
200 queries parks everyone else behind them.  The network tier therefore
schedules *in front of* the service:

* each tenant owns a FIFO of pending queries, admitted against a
  :class:`TenantQuota` — a full pending queue is an immediate
  :class:`TenantThrottled` (HTTP 429), never silent loss;
* a dispatcher thread runs classic deficit round-robin over the tenants
  with work: each round a tenant's deficit grows by its quota ``weight``,
  and it dispatches one queued query per whole unit of deficit (unit cost
  — queries are the indivisible work item here), so over time tenants
  receive service proportional to weight regardless of burst shapes;
* ``max_inflight`` caps how many of a tenant's queries may occupy service
  workers at once; a capped tenant is skipped (its deficit frozen) until a
  completion callback reopens it;
* dispatch itself uses the service's blocking admission (``block=True``),
  so when every worker is busy the dispatcher — not the HTTP handlers —
  absorbs the backpressure.

Every admission decision is observable: ``tenant_admitted`` /
``tenant_throttled`` :class:`~repro.core.observe.ProgressEvent`\\ s flow to
the scheduler's sinks, and the shared :class:`ServerMetrics` registry picks
up counts, queue depths and latencies for ``GET /metrics``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.core.observe import ProgressEvent, ProgressEventSink, emit_to_all
from repro.errors import AdmissionError, QueryCancelled, ServiceError
from repro.server.bridge import EventStream, terminal_frame
from repro.server.metrics import ServerMetrics
from repro.service.handle import QueryHandle
from repro.service.service import RETAINED_FINISHED


class TenantThrottled(AdmissionError):
    """A tenant's pending queue is full; retry after the backlog drains."""

    def __init__(self, tenant: str, pending: int, max_pending: int) -> None:
        super().__init__(
            "tenant %r is throttled: %d queries pending (quota %d)"
            % (tenant, pending, max_pending)
        )
        self.tenant = tenant
        self.pending = pending
        self.max_pending = max_pending


@dataclass(frozen=True)
class TenantQuota:
    """Admission and scheduling limits for one tenant.

    ``max_pending`` bounds the undispatched backlog (throttle above it);
    ``max_inflight`` bounds concurrently executing queries; ``weight`` is
    the DRR quantum — a weight-2 tenant earns dispatch slots twice as fast
    as a weight-1 tenant when both have work queued.
    """

    max_pending: int = 32
    max_inflight: int = 4
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ServiceError("max_pending must be >= 1")
        if self.max_inflight < 1:
            raise ServiceError("max_inflight must be >= 1")
        if self.weight <= 0:
            raise ServiceError("weight must be > 0")


class ScheduledQuery:
    """One query owned by the scheduler, before and after dispatch."""

    def __init__(self, query_id: str, tenant: str, name: str, query,
                 *, deadline: Optional[float], target_samples: Optional[int],
                 stream: Optional[EventStream], sinks: tuple,
                 created_at: float) -> None:
        self.query_id = query_id
        self.tenant = tenant
        self.name = name
        self.query = query
        self.deadline = deadline
        self.target_samples = target_samples
        #: the WebSocket-facing frame stream (None when nobody will watch)
        self.stream = stream
        #: per-query service sinks (StreamSink and friends)
        self.sinks = sinks
        self.handle: Optional[QueryHandle] = None
        #: admission instant, on the scheduler's clock (as finished_at is)
        self.created_at = created_at
        self.finished_at: Optional[float] = None
        self.pre_dispatch_error: Optional[BaseException] = None
        self._lock = threading.Lock()
        self._cancelled_queued = False
        self._dispatched = False

    def state_name(self) -> str:
        if self.handle is not None:
            return self.handle.state.value
        if self._cancelled_queued:
            return "cancelled"
        if self.pre_dispatch_error is not None:
            return "failed"
        return "queued"

    @property
    def done(self) -> bool:
        if self.handle is not None:
            return self.handle.done
        return self._cancelled_queued or self.pre_dispatch_error is not None

    def latest_progress(self) -> Optional[dict]:
        if self.handle is None:
            return None
        sample = self.handle.progress()
        if sample is None:
            return None
        from repro.server.bridge import sample_to_dict

        return sample_to_dict(sample)

    def snapshot(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "id": self.query_id,
            "query": self.name,
            "tenant": self.tenant,
            "state": self.state_name(),
            "done": self.done,
        }
        progress = self.latest_progress()
        if progress is not None:
            record["progress"] = progress
        error = (
            self.handle.error if self.handle is not None
            else self.pre_dispatch_error
        )
        if error is not None:
            record["error"] = str(error)
        return record


class _TenantState:
    """Dispatcher-side bookkeeping for one tenant."""

    def __init__(self, quota: TenantQuota) -> None:
        self.quota = quota
        self.pending: Deque[ScheduledQuery] = deque()
        self.inflight = 0
        self.deficit = 0.0


class FairScheduler:
    """DRR dispatch of tenant queues onto a :class:`QueryService`."""

    def __init__(
        self,
        service,
        *,
        metrics: Optional[ServerMetrics] = None,
        default_quota: TenantQuota = TenantQuota(),
        quotas: Optional[Dict[str, TenantQuota]] = None,
        sinks: Sequence[ProgressEventSink] = (),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.service = service
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.default_quota = default_quota
        self.quotas = dict(quotas or {})
        self.sinks = list(sinks)
        self._clock = clock
        self._started_at = clock()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._tenants: Dict[str, _TenantState] = {}
        #: round-robin ring of tenant names (stable admission order)
        self._ring: List[str] = []
        self._queries: Dict[str, ScheduledQuery] = {}
        #: ids of finished queries, oldest first (see RETAINED_FINISHED)
        self._finished: Deque[str] = deque()
        self._ids = itertools.count(1)
        #: own counter — _emit runs both with and without self._lock held
        self._seq = itertools.count()
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-server-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- admission ---------------------------------------------------------------

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def submit(
        self,
        tenant: str,
        query,
        *,
        name: Optional[str] = None,
        deadline: Optional[float] = None,
        target_samples: Optional[int] = None,
        stream: Optional[EventStream] = None,
        sinks: Sequence = (),
    ) -> ScheduledQuery:
        """Admit one query for ``tenant``; raises :class:`TenantThrottled`
        when the tenant's pending queue is at quota.

        ``query`` is SQL text or a zero-argument callable returning a fresh
        :class:`~repro.engine.plan.Plan` (plan objects hold runtime state,
        so repeated dispatch needs a fresh instance each time — the CLI's
        TPC-H mix uses callables).
        """
        quota = self.quota_for(tenant)
        with self._lock:
            if self._closed:
                raise AdmissionError("server scheduler is shut down")
            state = self._tenants.get(tenant)
            if state is None:
                state = self._tenants[tenant] = _TenantState(quota)
                self._ring.append(tenant)
            if len(state.pending) >= quota.max_pending:
                pending = len(state.pending)
                self.metrics.record_throttled(tenant)
                self._emit("tenant_throttled", tenant, name or "?", {
                    "pending": pending,
                    "max_pending": quota.max_pending,
                })
                raise TenantThrottled(tenant, pending, quota.max_pending)
            query_id = "q-%d" % next(self._ids)
            scheduled = ScheduledQuery(
                query_id, tenant, name or query_id, query,
                deadline=deadline, target_samples=target_samples,
                stream=stream, sinks=tuple(sinks),
                created_at=self._clock(),
            )
            state.pending.append(scheduled)
            self._queries[query_id] = scheduled
            self.metrics.record_submitted(tenant)
            # Publish "queued" before waking the dispatcher so the frame
            # provably precedes any sample a fast worker could emit.
            if stream is not None:
                stream.publish(json.dumps({
                    "event": "queued",
                    "id": scheduled.query_id,
                    "query": scheduled.name,
                    "tenant": tenant,
                }, sort_keys=True))
            self._work.notify()
        return scheduled

    def get(self, query_id: str) -> Optional[ScheduledQuery]:
        with self._lock:
            return self._queries.get(query_id)

    def cancel(self, query_id: str) -> bool:
        """Cooperative cancel: drop a queued query, or signal a running one."""
        scheduled = self.get(query_id)
        if scheduled is None:
            return False
        with self._lock:
            state = self._tenants[scheduled.tenant]
            if scheduled in state.pending:
                state.pending.remove(scheduled)
                scheduled._cancelled_queued = True
                scheduled.pre_dispatch_error = QueryCancelled(
                    "query %r was cancelled while queued" % (scheduled.name,)
                )
                scheduled.finished_at = self._clock()
                self.metrics.record_cancelled_queued(scheduled.tenant)
                cancelled_queued = True
            else:
                cancelled_queued = False
        if cancelled_queued:
            self._finish(scheduled)
            return True
        if scheduled.handle is not None:
            return scheduled.handle.cancel()
        return False

    def queue_depths(self) -> Dict[str, int]:
        with self._lock:
            depths = {
                "service_pending": self.service.stats()["pending"],
            }
            for tenant, state in self._tenants.items():
                depths["tenant:%s" % tenant] = len(state.pending)
            return depths

    # -- dispatch ----------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            for scheduled in batch:
                self._dispatch(scheduled)

    def _next_batch(self) -> Optional[List[ScheduledQuery]]:
        """One DRR round: pick every query dispatchable right now.

        Blocks until some tenant has queued work below its inflight cap
        (or the scheduler closes).  Returns the round's dispatch list in
        ring order; dispatch happens outside the lock because the service's
        blocking admission may park the dispatcher.
        """
        with self._lock:
            while True:
                if self._closed:
                    return None
                batch: List[ScheduledQuery] = []
                eligible = False
                for tenant in list(self._ring):
                    state = self._tenants[tenant]
                    if not state.pending:
                        state.deficit = 0.0
                        continue
                    if state.inflight >= state.quota.max_inflight:
                        # Capped: frozen out of this round, deficit kept.
                        continue
                    eligible = True
                    state.deficit += state.quota.weight
                    budget = state.quota.max_inflight - state.inflight
                    while (state.pending and state.deficit >= 1.0
                           and budget > 0):
                        scheduled = state.pending.popleft()
                        state.deficit -= 1.0
                        state.inflight += 1
                        budget -= 1
                        batch.append(scheduled)
                    if not state.pending:
                        state.deficit = 0.0
                if batch:
                    return batch
                if not eligible:
                    self._work.wait()
                # else: every eligible tenant is still accumulating
                # deficit (< 1 unit); loop again immediately — with unit
                # costs and weights >= some positive value this converges
                # in at most ceil(1/min_weight) rounds.

    def _dispatch(self, scheduled: ScheduledQuery) -> None:
        tenant = scheduled.tenant
        self.metrics.record_dispatched(tenant)
        try:
            query = scheduled.query
            plan = query() if callable(query) else query
            handle = self.service.submit(
                plan,
                name=scheduled.name,
                deadline=scheduled.deadline,
                target_samples=scheduled.target_samples,
                sinks=scheduled.sinks,
                block=True,
            )
        except Exception as exc:
            with self._lock:
                scheduled.pre_dispatch_error = exc
                scheduled.finished_at = self._clock()
                state = self._tenants[tenant]
                state.inflight = max(0, state.inflight - 1)
                self._work.notify()
            self.metrics.record_completed(tenant, "failed")
            self._finish(scheduled)
            return
        scheduled._dispatched = True
        scheduled.handle = handle
        self._emit("tenant_admitted", tenant, scheduled.name, {
            "query_id": scheduled.query_id,
            "inflight": self._tenants[tenant].inflight,
        })
        handle.add_done_callback(
            lambda _handle: self._on_done(scheduled)
        )

    def _on_done(self, scheduled: ScheduledQuery) -> None:
        handle = scheduled.handle
        now = self._clock()
        scheduled.finished_at = now
        ticks = 0
        if handle.error is None and handle.done:
            report = handle.result(timeout=0)
            if report.profile is not None:
                ticks = report.profile.ticks
        with self._lock:
            state = self._tenants[scheduled.tenant]
            state.inflight = max(0, state.inflight - 1)
            self._work.notify()
        self.metrics.record_completed(
            scheduled.tenant, handle.state.value,
            ticks=ticks, latency_seconds=now - scheduled.created_at,
        )
        self._finish(scheduled)

    def _finish(self, scheduled: ScheduledQuery) -> None:
        """Every terminal path ends here: seal the stream, then let the
        oldest finished query beyond ``RETAINED_FINISHED`` be forgotten."""
        stream = scheduled.stream
        if stream is not None:
            stream.publish(
                json.dumps(terminal_frame(scheduled), sort_keys=True)
            )
            stream.close()
        with self._lock:
            self._finished.append(scheduled.query_id)
            if len(self._finished) > RETAINED_FINISHED:
                del self._queries[self._finished.popleft()]

    # -- observability ------------------------------------------------------------

    def _emit(self, kind: str, tenant: str, name: str,
              payload_extra: Dict[str, object]) -> None:
        if not self.sinks:
            return
        payload: Dict[str, object] = {"tenant": tenant}
        payload.update(payload_extra)
        seq = next(self._seq)
        emit_to_all(self.sinks, ProgressEvent(
            seq=seq,
            kind=kind,
            plan=name,
            elapsed_seconds=self._clock() - self._started_at,
            curr=0.0,
            total=None,
            actual=None,
            lower_bound=0.0,
            upper_bound=0.0,
            estimates={},
            payload=payload,
        ))

    # -- lifecycle ---------------------------------------------------------------

    def queries(self) -> List[ScheduledQuery]:
        with self._lock:
            return list(self._queries.values())

    def wait_all(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted query is terminal."""
        deadline = None if timeout is None else self._clock() + timeout
        for scheduled in self.queries():
            while not scheduled.done:
                if deadline is not None and self._clock() >= deadline:
                    return False
                if scheduled.handle is not None:
                    remaining = (
                        None if deadline is None
                        else max(0.0, deadline - self._clock())
                    )
                    scheduled.handle.wait(remaining)
                else:
                    time.sleep(0.01)
        return True

    def shutdown(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dropped: List[ScheduledQuery] = []
            for state in self._tenants.values():
                while state.pending:
                    scheduled = state.pending.popleft()
                    scheduled._cancelled_queued = True
                    scheduled.pre_dispatch_error = QueryCancelled(
                        "server shut down before query %r was dispatched"
                        % (scheduled.name,)
                    )
                    scheduled.finished_at = self._clock()
                    dropped.append(scheduled)
            self._work.notify_all()
        for scheduled in dropped:
            self.metrics.record_cancelled_queued(scheduled.tenant)
            self._finish(scheduled)
        self._dispatcher.join(timeout=10.0)
        for sink in self.sinks:
            sink.close()
