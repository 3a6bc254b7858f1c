"""The stable public facade: ``repro.connect(...) -> Session``.

Everything an application needs lives here, with keyword-only options and
no imports from engine/runner internals:

    import repro

    session = repro.connect(catalog=catalog)
    plan = session.sql("SELECT COUNT(*) FROM t")      # plan only
    result = session.execute(plan)                    # rows + accounting
    report = session.run(plan)                        # instrumented run
    handle = session.submit(plan, deadline=5.0)       # concurrent service
    handle.progress(); handle.cancel(); handle.result()

Execution knobs travel in one object — :class:`ExecutionOptions` — with a
single resolution path (explicit value → ``$REPRO_*`` → fallback)::

    options = repro.api.ExecutionOptions(engine="columnar", backend="process")
    with repro.connect(catalog=catalog, options=options) as session:
        ...

Stability policy (see ``docs/api.md``): the package has no external users,
so names change in place — no deprecation shims; ``repro`` and
``repro.api`` are the surface the docs and ``tests/api/test_surface.py``
pin.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.estimators import (
    ProgressEstimator,
    RobustHistory,
    make_estimator,
    standard_toolkit,
)
from repro.core.observe import ProgressEventSink
from repro.core.runner import ProgressReport, ProgressRunner
from repro.engine.executor import ExecutionResult, execute
from repro.engine.plan import Plan
from repro.errors import ReproError
from repro.options import ExecutionOptions
from repro.service import QueryHandle, QueryService
from repro.storage.catalog import Catalog

__all__ = [
    "Catalog",
    "ExecutionOptions",
    "ExecutionResult",
    "Plan",
    "ProgressReport",
    "QueryHandle",
    "QueryService",
    "Session",
    "connect",
]

Query = Union[Plan, str]

#: an estimator instance, or a registry name (``"dne"``, ``"safe"``,
#: ``"robust"``, ...) the session resolves against its shared histories
EstimatorSpec = Union[str, ProgressEstimator]


def connect(
    *,
    catalog: Optional[Catalog] = None,
    options: Optional[ExecutionOptions] = None,
    engine: Optional[str] = None,
    bounds: Optional[Sequence[str]] = None,
    target_samples: Optional[int] = None,
    max_workers: Optional[int] = None,
    queue_depth: Optional[int] = None,
    backend: Optional[str] = None,
    start_method: Optional[str] = None,
) -> "Session":
    """Open a :class:`Session` against ``catalog``.

    ``options`` carries every execution knob in one
    :class:`ExecutionOptions`; the remaining keywords are per-knob
    overrides layered on top of it (explicit keyword → ``options`` field →
    ``$REPRO_*`` environment variable → built-in fallback).  ``engine``
    picks the execution engine for every operation on the session
    (fallback: the fused compiler).  ``bounds`` names the bound-provider
    stack for the runtime bounds tracker — the default ``["paper2005"]`` is
    the paper's §5.1 rules alone; stacking ``"degree_seq"`` on top
    intersects degree-sequence join bounds into every snapshot (see
    ``docs/bounds.md``).  ``max_workers``/``queue_depth`` size the
    concurrent query service behind :meth:`Session.submit` (started lazily
    on first use).
    ``backend`` picks that service's execution backend — ``"thread"``
    (fallback) or ``"process"`` for real CPU parallelism; ``start_method``
    tunes how process workers start (``"fork"``/``"spawn"``/
    ``"forkserver"``, fork where available).
    """
    return Session(
        catalog=catalog,
        options=options,
        engine=engine,
        bounds=bounds,
        target_samples=target_samples,
        max_workers=max_workers,
        queue_depth=queue_depth,
        backend=backend,
        start_method=start_method,
    )


class Session:
    """One connection-like scope: a catalog, resolved options, a service."""

    def __init__(
        self,
        *,
        catalog: Optional[Catalog] = None,
        options: Optional[ExecutionOptions] = None,
        engine: Optional[str] = None,
        bounds: Optional[Sequence[str]] = None,
        target_samples: Optional[int] = None,
        max_workers: Optional[int] = None,
        queue_depth: Optional[int] = None,
        backend: Optional[str] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        #: the session's fully resolved :class:`ExecutionOptions`
        self.options = (options or ExecutionOptions()).merged(
            engine=engine,
            backend=backend,
            start_method=start_method,
            bounds=bounds,
            target_samples=target_samples,
            max_workers=max_workers,
            queue_depth=queue_depth,
        ).resolve()
        self.engine = self.options.engine
        self.backend = self.options.backend
        self.bounds = self.options.bounds
        self.target_samples = self.options.target_samples
        self._service: Optional[QueryService] = None
        self._closed = False
        #: shared learning state for name-resolved history-backed
        #: estimators: ``"feedback"`` reads its expected totals from
        #: ``_histories.totals``, ``"robust"`` reads its candidate error
        #: statistics from ``_histories`` — and every :meth:`run` whose
        #: toolkit came from names feeds both back automatically.  Keys are
        #: qualified by the session catalog's data fingerprint, so a
        #: same-shaped plan over changed data starts a fresh entry.
        self._histories = RobustHistory(catalog=self.catalog)

    # -- planning ----------------------------------------------------------------

    def sql(self, text: str, *, name: Optional[str] = None) -> Plan:
        """Plan SQL text against the session catalog (no execution)."""
        from repro.sql import plan_query

        return plan_query(text, self.catalog, name=name or "session-sql")

    def _plan_for(self, query: Query, *, name: Optional[str] = None) -> Plan:
        if isinstance(query, Plan):
            return query
        if isinstance(query, str):
            return self.sql(query, name=name)
        raise ReproError(
            "query must be a Plan or SQL text, not %r"
            % (type(query).__name__,)
        )

    def _resolve_toolkit(
        self, estimators: Optional[Sequence[EstimatorSpec]]
    ) -> List[ProgressEstimator]:
        """Instances pass through; names resolve against the session's
        shared histories, so ``"feedback"`` and ``"robust"`` learn across
        the session's runs."""
        if estimators is None:
            return standard_toolkit()
        toolkit: List[ProgressEstimator] = []
        for spec in estimators:
            if isinstance(spec, str):
                toolkit.append(make_estimator(
                    spec,
                    history=self._histories.totals,
                    robust_history=self._histories,
                    catalog=self.catalog,
                ))
            else:
                toolkit.append(spec)
        return toolkit

    # -- synchronous execution -----------------------------------------------------

    def execute(
        self,
        query: Query,
        *,
        name: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> ExecutionResult:
        """Run to completion; rows plus getnext accounting, no estimators."""
        plan = self._plan_for(query, name=name)
        return execute(plan, engine=engine or self.engine)

    def run(
        self,
        query: Query,
        *,
        name: Optional[str] = None,
        estimators: Optional[Sequence[EstimatorSpec]] = None,
        target_samples: Optional[int] = None,
        sinks: Sequence[ProgressEventSink] = (),
        engine: Optional[str] = None,
        bounds: Optional[Sequence[str]] = None,
    ) -> ProgressReport:
        """One instrumented run: execute while sampling every estimator.

        ``estimators`` accepts instances and/or registry names
        (``"dne"``, ``"safe"``, ``"robust"``, ...).  History-backed
        estimators resolved by name share the session's histories, and any
        toolkit member exposing ``observe_result`` (the robust
        combination) is fed the sealed total after the run — so repeated
        ``session.run(plan, estimators=["safe", "robust"])`` calls learn
        from one run to the next with no extra plumbing.
        """
        plan = self._plan_for(query, name=name)
        toolkit = self._resolve_toolkit(estimators)
        report = ProgressRunner(
            plan,
            toolkit,
            self.catalog,
            target_samples=(
                target_samples if target_samples is not None
                else self.target_samples
            ),
            sinks=sinks,
            engine=engine or self.engine,
            bounds=bounds if bounds is not None else self.bounds,
        ).run()
        for estimator in toolkit:
            observe = getattr(estimator, "observe_result", None)
            if observe is not None:
                observe(plan, report.total)
        return report

    # -- concurrent execution ------------------------------------------------------

    @property
    def service(self) -> QueryService:
        """The session's query service (started on first access)."""
        if self._closed:
            raise ReproError("session is closed")
        if self._service is None:
            self._service = QueryService(
                self.catalog,
                options=self.options,
            )
        return self._service

    def submit(
        self,
        query: Query,
        *,
        name: Optional[str] = None,
        estimators: Optional[Sequence[EstimatorSpec]] = None,
        deadline: Optional[float] = None,
        sinks: Sequence[ProgressEventSink] = (),
        block: bool = False,
        timeout: Optional[float] = None,
    ) -> QueryHandle:
        """Admit a query onto the concurrent service; returns its handle.

        ``sinks`` subscribe to this query's live cadence samples (the
        stream the network tier forwards over WebSockets).  ``estimators``
        accepts registry names like :meth:`run`.  Unlike :meth:`run`,
        ``submit`` does not feed the sealed total back to history-backed
        estimators on either backend: no service path calls
        ``observe_result``, so queries run through ``submit`` do not teach
        ``robust`` (call ``estimator.observe_result(plan,
        handle.result().total)`` yourself if you need it).
        """
        plan = self._plan_for(query, name=name)
        return self.service.submit(
            plan,
            name=name,
            estimators=(
                self._resolve_toolkit(estimators)
                if estimators is not None else None
            ),
            deadline=deadline,
            sinks=sinks,
            block=block,
            timeout=timeout,
        )

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Shut the service down (idempotent); the session becomes inert."""
        self._closed = True
        if self._service is not None:
            self._service.shutdown()
            self._service = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return "Session(engine=%r, catalog=%r)" % (
            self.engine, getattr(self.catalog, "name", None),
        )
