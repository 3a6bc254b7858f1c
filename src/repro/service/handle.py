"""Query handles: the client-side view of one admitted query.

A :class:`QueryHandle` is created at admission and crosses three threads:
the submitter (cancel, wait, poll), the worker that executes the query, and
any number of monitor threads reading progress.  Its life cycle is

    QUEUED -> RUNNING -> DONE | CANCELLED | FAILED | TIMED_OUT

with exactly one transition into a terminal state (a query cancelled while
queued goes straight to CANCELLED and never reaches a worker);
``wait``/``result`` park on an event that fires at that transition.
Progress is read one way, :meth:`progress`: the most recent cadence sample
the executor published (free to read).  The paper defines progress at the
getnext instants where the estimators are sampled, and those are exactly
the samples published here.

Truth is labeled at completion, so samples observed *while the query runs*
carry ``actual=None`` (estimator answers and bounds are live; the
true-progress label does not exist yet).
Once the handle is DONE, :meth:`progress` answers the sealed trace's fully
labeled final sample.
"""

from __future__ import annotations

import enum
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.metrics import TraceSample
from repro.core.runner import ProgressReport
from repro.errors import QueryCancelled, QueryTimeout, ServiceError


class QueryState(enum.Enum):
    """Life-cycle states of a submitted query."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"
    TIMED_OUT = "timed_out"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = frozenset(
    {QueryState.DONE, QueryState.CANCELLED, QueryState.FAILED,
     QueryState.TIMED_OUT}
)


class QueryHandle:
    """Ticket for one admitted query; safe to use from any thread."""

    def __init__(self, query_id: Optional[str], name: Optional[str],
                 plan) -> None:
        #: ``"q-N"``, assigned at admission
        self.query_id = query_id
        self.name = name
        #: None until the worker that takes a plan-later query plans it
        self.plan = plan
        self.tenant = "default"
        #: admission and terminal instants on the service's clock
        self.submitted_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: read by the service monitor on *every* recorded tick batch — a
        #: plain attribute so the hot path pays one attribute load, not a
        #: lock round trip
        self.cancel_requested = False
        #: monotonic instant after which the monitor raises QueryTimeout
        #: (set by the worker when execution starts)
        self.deadline_at: Optional[float] = None
        #: seconds granted for execution, or None for no deadline
        self.deadline_seconds: Optional[float] = None
        #: estimator name -> reason, filled when the toolkit degrades
        self.degraded: Dict[str, str] = {}
        self._state = QueryState.QUEUED
        self._state_lock = threading.Lock()
        self._done = threading.Event()
        self._report: Optional[ProgressReport] = None
        self._error: Optional[BaseException] = None
        self._latest: Optional[TraceSample] = None
        self._samples_published = 0
        # per-query run configuration, filled in by the service at admission
        self._factory: Optional[Callable[[], object]] = None
        #: whether the service planned the query (SQL text or a factory)
        #: rather than being handed a plan the caller may run again
        self._owns_plan = False
        self._target_samples = 200
        self._estimators: Optional[List] = None
        #: per-query event sinks (cadence samples only); the network tier's
        #: WebSocket bridge subscribes through these
        self._sinks: tuple = ()
        self._callbacks: List[Callable[["QueryHandle"], None]] = []
        #: pickled (plan, estimators) wire payload — process backend only
        self._wire: Optional[bytes] = None
        # backend hook: while queued, ``_on_cancel`` leaves the admission
        # queue; on a worker the process backend binds its own (the thread
        # backend reads cancel_requested)
        self._on_cancel: Optional[Callable[[], None]] = None

    # -- state -----------------------------------------------------------------

    @property
    def state(self) -> QueryState:
        return self._state

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the query reaches a terminal state."""
        return self._done.wait(timeout)

    def add_done_callback(self, fn: Callable[["QueryHandle"], None]) -> None:
        """Run ``fn(handle)`` exactly once when the query turns terminal.

        Registered after the terminal transition, ``fn`` runs immediately
        on the calling thread; otherwise it runs on the thread that
        finalizes the query (a worker, a shepherd, or whoever cancelled it
        while queued).  Callbacks must not block — the network tier uses
        them to record latency and push terminal frames.  A raising
        callback is swallowed: completion accounting must never be
        derailed by a subscriber.
        """
        with self._state_lock:
            if not self._state.terminal:
                self._callbacks.append(fn)
                return
        self._run_callback(fn)

    def _run_callback(self, fn: Callable[["QueryHandle"], None]) -> None:
        try:
            fn(self)
        except Exception:
            pass

    def result(self, timeout: Optional[float] = None) -> ProgressReport:
        """The finished run's report; raises the terminal error otherwise.

        Raises :class:`repro.errors.QueryCancelled` /
        :class:`repro.errors.QueryTimeout` for those terminal states, the
        original exception for FAILED, and :class:`ServiceError` if the
        wait timed out.
        """
        if not self.wait(timeout):
            raise ServiceError(
                "query %r still %s after %ss"
                % (self.name, self._state.value, timeout)
            )
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def cancel(self) -> bool:
        """Request cooperative cancellation.

        Returns True if the query had not yet reached a terminal state; the
        executor honours the request at the next tick-batch boundary, and a
        query still waiting for a worker turns CANCELLED at once.
        """
        with self._state_lock:
            self.cancel_requested = True
            on_cancel = self._on_cancel
            live = not self._state.terminal
        if live and on_cancel is not None:
            # Queued: leave the admission queue.  Process backend: mirror
            # the request into the shared-memory flag the worker process
            # polls at tick-batch boundaries.
            on_cancel()
        return live

    # -- progress --------------------------------------------------------------

    def progress(self) -> Optional[TraceSample]:
        """The most recent cadence sample, or None before the first one.

        Each returned sample matches — estimator answer for estimator
        answer — what a single-threaded run of the same plan observes at
        the same tick instant; while the query runs, ``actual`` is None
        (single-pass protocol: truth is back-filled at completion).  After
        DONE this answers the sealed trace's labeled final sample.
        """
        return self._latest

    @property
    def samples_published(self) -> int:
        return self._samples_published

    # -- worker-side hooks (not public API) --------------------------------------

    def _bind_backend(self, on_cancel: Optional[Callable[[], None]]) -> None:
        """Wire (or, with None, unwire) the process backend's cancel hook.

        A cancel that raced the hand-over — requested after a worker took
        the query but before its slot bound this hook — is replayed into
        the fresh hook so the shared flag is never left unset.
        """
        with self._state_lock:
            self._on_cancel = on_cancel
            replay = self.cancel_requested and on_cancel is not None
        if replay:
            on_cancel()

    def _publish(self, event, count: int = 1) -> None:
        """``event`` is the newest of ``count`` cadence samples (the
        process backend delivers them in display-rate batches): only it
        is built into what :meth:`progress` answers."""
        self._latest = TraceSample(
            curr=event.curr,
            actual=event.actual,
            estimates=event.estimates,
            lower_bound=event.lower_bound,
            upper_bound=event.upper_bound,
        )
        self._samples_published += count

    def _mark_running(self) -> bool:
        with self._state_lock:
            if self.cancel_requested:
                return False
            self._state = QueryState.RUNNING
            return True

    def _finalize(
        self,
        state: QueryState,
        report: Optional[ProgressReport] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        if not state.terminal:
            raise ServiceError("cannot finalize into %s" % (state,))
        with self._state_lock:
            if self._state.terminal:
                return
            self._state = state
            self._report = report
            self._error = error
            if report is not None and report.trace.samples:
                # Truth exists now: republish the sealed trace's labeled
                # final sample so post-DONE progress() answers actual=1.0
                # instead of a stale unlabeled live sample.
                self._latest = report.trace.samples[-1]
                self._samples_published += 1
            callbacks, self._callbacks = self._callbacks, []
        self._done.set()
        # Outside the lock: a callback may itself inspect the handle.
        for fn in callbacks:
            self._run_callback(fn)

    def __repr__(self) -> str:
        return "QueryHandle(%s %r, %s)" % (
            self.query_id, self.name, self._state.value,
        )


def cancelled_error(name: str) -> QueryCancelled:
    return QueryCancelled("query %r was cancelled" % (name,))


def timeout_error(name: str, seconds: Optional[float]) -> QueryTimeout:
    return QueryTimeout(
        "query %r exceeded its %.3fs deadline" % (name, seconds or 0.0)
    )


def run_outcome(
    run: Callable[[], ProgressReport],
) -> Tuple[QueryState, Optional[ProgressReport], Optional[BaseException]]:
    """``(state, report, error)`` of one monitored run, on either backend."""
    try:
        return QueryState.DONE, run(), None
    except QueryCancelled as exc:
        return QueryState.CANCELLED, None, exc
    except QueryTimeout as exc:
        return QueryState.TIMED_OUT, None, exc
    except Exception as exc:
        return QueryState.FAILED, None, exc
