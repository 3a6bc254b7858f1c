"""Admission: per-tenant FIFOs served by deficit round robin, one lock.

Every query a :class:`~repro.service.service.QueryService` accepts waits
here as its :class:`~repro.service.handle.QueryHandle` until a worker
thread (or a process backend's shepherd) takes it.  Each tenant owns a FIFO
admitted against a :class:`TenantQuota`; :meth:`AdmissionQueue.take` runs
classic deficit round robin over the tenants that may start a query — a
tenant's deficit grows by its ``weight`` once per visit and pays one unit
per query taken, so tenants are served in proportion to weight whatever
their burst shapes, and one tenant alone is served in plain FIFO order.  A
tenant at ``max_inflight`` queries on workers is passed over, its deficit
kept, until :meth:`AdmissionQueue.complete` frees a slot.

The queue owns a query's bookkeeping from admission to its terminal state
— id, plan-in-flight check, counts, retention — and every terminal
transition goes through it, so a cancel issued while a query waits lands
at once and the query never reaches a worker.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.errors import AdmissionError, ServiceError
from repro.service.handle import QueryHandle, QueryState, cancelled_error

#: finished queries a long-lived service still remembers; older ones are
#: forgotten, with their buffered frames, sealed trace and plan
RETAINED_FINISHED = 256


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

    ``max_pending`` bounds the queries waiting for a worker (throttle
    above it); ``max_inflight`` bounds the tenant's queries on a worker at
    once; ``weight`` is the DRR quantum — a weight-2 tenant is served twice
    as often as a weight-1 tenant while both have work queued.
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


class _Tenant:
    __slots__ = ("quota", "pending", "inflight", "deficit")

    def __init__(self, quota: TenantQuota) -> None:
        self.quota = quota
        self.pending: Deque[QueryHandle] = deque()
        self.inflight = 0
        self.deficit = 0.0

    @property
    def ready(self) -> bool:
        return bool(self.pending) and self.inflight < self.quota.max_inflight


class AdmissionQueue:
    """Tenant-fair admission in front of a fixed set of workers.

    ``emit(kind, handle, payload_extra)`` is the service's event emitter;
    it is always called outside the lock.
    """

    def __init__(self, default_quota: TenantQuota,
                 quotas: Optional[Dict[str, TenantQuota]] = None, *,
                 emit: Callable = lambda kind, handle, extra: None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.default_quota = default_quota
        self.quotas = dict(quotas or {})
        self._emit = emit
        self._clock = clock
        self._lock = threading.Lock()
        #: takers wait for a tenant that may start a query ...
        self._work = threading.Condition(self._lock)
        #: ... ``block=True`` submitters for room in their FIFO
        self._room = threading.Condition(self._lock)
        self._tenants: Dict[str, _Tenant] = {}
        #: round-robin ring of tenant names, in order of first admission
        self._ring: List[str] = []
        self._cursor = 0
        #: whether the tenant under the cursor has had this visit's quantum
        self._credited = False
        self._handles: Dict[str, QueryHandle] = {}
        #: ids of finished queries, oldest first (see RETAINED_FINISHED)
        self._finished: Deque[str] = deque()
        self._plans_in_flight: set = set()
        self._ids = itertools.count(1)
        self._closed = False
        self._counts = dict.fromkeys(
            ["submitted", "rejected"] + [
                state.value for state in QueryState if state.terminal
            ], 0,
        )

    # -- admission -----------------------------------------------------------------

    def put(self, handle: QueryHandle, tenant: str, *, block: bool = False,
            timeout: Optional[float] = None) -> None:
        """Admit ``handle`` for ``tenant``: it gets its id and joins the
        tenant's FIFO.  A full FIFO raises :class:`TenantThrottled` — at
        once, or once ``timeout`` seconds pass without room if ``block``."""
        quota = self.quotas.get(tenant, self.default_quota)
        handle.tenant = tenant
        with self._lock:
            if self._closed:
                raise AdmissionError("service is shut down")
            self._check_not_in_flight(handle.plan)
            state = self._tenants.get(tenant)
            if state is None:
                state = self._tenants[tenant] = _Tenant(quota)
                self._ring.append(tenant)
            if block:
                self._room.wait_for(
                    lambda: self._closed
                    or len(state.pending) < quota.max_pending,
                    timeout,
                )
                if self._closed:
                    raise AdmissionError("service is shut down")
            pending = len(state.pending)
            admitted = pending < quota.max_pending
            if admitted:
                handle.query_id = "q-%d" % next(self._ids)
                handle.name = handle.name or handle.query_id
                handle.submitted_at = self._clock()
                handle._on_cancel = lambda: self._cancel_queued(handle)
                if handle.plan is not None:
                    self._plans_in_flight.add(id(handle.plan))
                self._handles[handle.query_id] = handle
                state.pending.append(handle)
                self._work.notify()
            self._counts["submitted" if admitted else "rejected"] += 1
        if not admitted:
            self._emit("tenant_throttled", handle, {
                "pending": pending, "max_pending": quota.max_pending,
            })
            raise TenantThrottled(tenant, pending, quota.max_pending)
        self._emit("query_queued", handle, None)

    def reject(self) -> None:
        """Count a submission refused before it reached :meth:`put`."""
        with self._lock:
            self._counts["rejected"] += 1

    def _check_not_in_flight(self, plan) -> None:
        if plan is not None and id(plan) in self._plans_in_flight:
            raise AdmissionError(
                "plan %r is already queued or running; submit a fresh plan "
                "object per in-flight query (operators hold runtime state)"
                % (plan.name,)
            )

    # -- the worker side -------------------------------------------------------------

    def take(self) -> Optional[QueryHandle]:
        """The next query by deficit round robin, once one may start;
        None once the queue is closed and nothing is left pending."""
        with self._lock:
            while True:
                state = self._pick()
                if state is not None:
                    break
                if self._closed and not any(
                        t.pending for t in self._tenants.values()):
                    return None
                self._work.wait()
            handle = state.pending.popleft()
            if not state.pending:
                state.deficit = 0.0
            state.inflight += 1
            inflight = state.inflight
            self._room.notify_all()
        self._emit("tenant_admitted", handle, {"inflight": inflight})
        return handle

    def _pick(self) -> Optional[_Tenant]:
        """Advance the round robin to a tenant that may start a query."""
        if not any(state.ready for state in self._tenants.values()):
            return None
        while True:
            state = self._tenants[self._ring[self._cursor]]
            if state.ready:
                if not self._credited:
                    state.deficit += state.quota.weight
                    self._credited = True
                if state.deficit >= 1.0:
                    state.deficit -= 1.0
                    return state
            elif not state.pending:
                state.deficit = 0.0
            self._cursor = (self._cursor + 1) % len(self._ring)
            self._credited = False

    def claim(self, handle: QueryHandle, plan) -> None:
        """Bind the plan a worker made for a plan-later query."""
        with self._lock:
            self._check_not_in_flight(plan)
            self._plans_in_flight.add(id(plan))
            handle.plan = plan

    def complete(self, handle: QueryHandle, state: QueryState, *,
                 report=None, error: Optional[BaseException] = None) -> None:
        """A worker is done with ``handle``: free its tenant's slot, then
        finalize it."""
        with self._lock:
            self._tenants[handle.tenant].inflight -= 1
            self._work.notify()
            self._retire(handle, state)
        self._end(handle, state, report, error)

    # -- cancellation and close ------------------------------------------------------------

    def _cancel_queued(self, handle: QueryHandle) -> None:
        """``handle.cancel()`` before a worker took it: drop it now (once
        a worker has it, the cancel flag reaches it there)."""
        with self._lock:
            try:
                self._tenants[handle.tenant].pending.remove(handle)
            except ValueError:
                return
            self._room.notify_all()
            self._retire(handle, QueryState.CANCELLED)
        self._end(handle, QueryState.CANCELLED, None,
                  cancelled_error(handle.name))

    def close(self, cancel_pending: bool) -> bool:
        """Refuse further admissions; False if already closed.  Queries
        still waiting end CANCELLED here with ``cancel_pending``; otherwise
        workers drain them before :meth:`take` answers None."""
        dropped: List[QueryHandle] = []
        with self._lock:
            if self._closed:
                return False
            self._closed = True
            if cancel_pending:
                for state in self._tenants.values():
                    dropped.extend(state.pending)
                    state.pending.clear()
            for handle in dropped:
                self._retire(handle, QueryState.CANCELLED)
            self._work.notify_all()
            self._room.notify_all()
        for handle in dropped:
            self._end(handle, QueryState.CANCELLED, None,
                      cancelled_error(handle.name))
        return True

    def _retire(self, handle: QueryHandle, state: QueryState) -> None:
        """Under the lock: count the outcome, then let the oldest finished
        query beyond ``RETAINED_FINISHED`` be forgotten."""
        handle.finished_at = self._clock()
        self._counts[state.value] += 1
        if handle.plan is not None:
            self._plans_in_flight.discard(id(handle.plan))
        self._finished.append(handle.query_id)
        if len(self._finished) > RETAINED_FINISHED:
            del self._handles[self._finished.popleft()]

    def _end(self, handle: QueryHandle, state: QueryState, report,
             error: Optional[BaseException]) -> None:
        handle._finalize(state, report=report, error=error)
        self._emit("query_end", handle, None)

    # -- inspection ------------------------------------------------------------------

    def get(self, query_id: str) -> Optional[QueryHandle]:
        with self._lock:
            return self._handles.get(query_id)

    def handles(self) -> List[QueryHandle]:
        """Unfinished handles plus the most recent ``RETAINED_FINISHED``
        finished ones, in admission order."""
        with self._lock:
            return list(self._handles.values())

    def stats(self) -> Dict[str, int]:
        with self._lock:
            counts = dict(self._counts)
            counts["pending"] = sum(
                len(state.pending) for state in self._tenants.values()
            )
        return counts

    def load(self) -> Dict[str, Dict[str, int]]:
        """Per tenant: queries waiting and queries on a worker."""
        with self._lock:
            return {
                tenant: {"pending": len(state.pending),
                         "inflight": state.inflight}
                for tenant, state in self._tenants.items()
            }
