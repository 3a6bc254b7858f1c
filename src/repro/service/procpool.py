"""The multiprocess execution backend: real CPU parallelism for the service.

The thread backend gives :class:`~repro.service.service.QueryService`
concurrency but — the engine being pure Python — zero parallelism: the GIL
serializes every tick, so eight in-flight queries share one core.  This
module supplies ``backend="process"``: a pool of long-lived worker
*processes*, each running the exact single-pass instrumented execution the
thread backend runs (one monitored pass per query, truth labeled at seal
time), with every observable behaving identically at the parent:

* **catalog** — workers forked from the parent inherit the catalog for
  free; under ``spawn``/``forkserver`` (where nothing is inherited) the
  catalog is re-opened in the worker from a picklable :class:`CatalogSpec`
  (a pickled catalog by default, or a named factory for big databases);
* **wire protocol** — the parent ships one :class:`_ExecuteRequest` per
  query (pickled plan + per-query toolkit, with catalog tables interned by
  name so table rows never cross per-submit) down a duplex pipe; the
  worker answers through one writer (:class:`_Wire`) with ``events``
  (cadence samples, batched at display rate), ``degraded``, ``probe`` and
  a final ``done`` message carrying the pickled
  :class:`~repro.core.runner.ProgressReport` — so completed traces are
  bit-identical to solo runs (floats pickle exactly);
* **control** — cancellation and the probe request counter travel the
  *other* way through shared memory (:func:`multiprocessing.RawValue`),
  checked by the thread backend's own monitor class at the same
  tick-batch boundaries, so cancel/deadline latency bounds are unchanged;
* **live sampling** — ``handle.sample()`` increments the probe counter and
  parks until the worker answers with a fresh lock-scoped
  :class:`~repro.core.metrics.TraceSample` taken at its next boundary
  (one extra tick batch of staleness versus the thread backend's
  shared-lock probe — the price of the process boundary);
* **robustness** — a worker that dies mid-query fails only that query
  (the handle finalizes FAILED with a :class:`ServiceError`) and the slot
  respawns its worker for the next one.

Backend selection mirrors engine selection: explicit argument →
``$REPRO_BACKEND`` → ``"thread"`` (and explicit argument →
``$REPRO_START_METHOD`` → ``fork`` where the platform offers it), both
resolved through :class:`repro.options.ExecutionOptions`.
"""

from __future__ import annotations

import importlib
import io
import multiprocessing
import pickle
import threading
import time
import traceback
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.metrics import TraceSample
from repro.core.observe import ForwardingSink, emit_to_all
from repro.core.runner import ProgressRunner
from repro.errors import ServiceError
from repro.service.handle import (
    QueryHandle,
    QueryState,
    cancelled_error,
    run_outcome,
    timeout_error,
)
from repro.service.monitor import ServiceExecutionMonitor
from repro.service.resilient import ResilientEstimator

@contextmanager
def _fork_guard(start_method: str):
    """Silence the 3.12+ fork-in-threads DeprecationWarning for our forks.

    The warning targets forks that may clone arbitrarily-held locks into
    the child.  Our forked worker enters ``_worker_main`` directly and
    touches only its own pipe, its shared flags and the inherited catalog
    — never a lock another parent thread could hold — so the deadlock the
    warning guards against cannot occur here.
    """
    if start_method != "fork":
        yield
        return
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=DeprecationWarning)
        yield


# -- catalog shipping -------------------------------------------------------------


class CatalogSpec:
    """A picklable recipe for opening a catalog inside a worker process.

    Fork-started workers inherit the parent's catalog and never need one;
    spawn/forkserver workers start from nothing, so the parent ships a
    spec instead:

    * :meth:`from_catalog` — the default: the catalog itself, pickled
      (fine for benchmark-scale databases);
    * :meth:`from_factory` — a named ``"module:callable"`` the worker
      imports and calls, for databases that are cheaper to regenerate or
      re-open than to serialize.  ``attribute`` optionally plucks a field
      off the factory's return value (e.g. ``"catalog"`` on a generated
      :class:`~repro.workloads.tpch.dbgen.TpchDatabase`).
    """

    def __init__(self, kind: str, payload) -> None:
        self.kind = kind
        self.payload = payload

    @classmethod
    def none(cls) -> "CatalogSpec":
        return cls("none", None)

    @classmethod
    def from_catalog(cls, catalog) -> "CatalogSpec":
        if catalog is None:
            return cls.none()
        return cls("pickle", pickle.dumps(catalog, pickle.HIGHEST_PROTOCOL))

    @classmethod
    def from_factory(
        cls,
        target: str,
        args: Sequence = (),
        kwargs: Optional[dict] = None,
        attribute: Optional[str] = None,
    ) -> "CatalogSpec":
        if ":" not in target:
            raise ServiceError(
                "factory target must be 'module:callable', got %r" % (target,)
            )
        return cls(
            "factory", (target, tuple(args), dict(kwargs or {}), attribute)
        )

    def open(self):
        """Materialize the catalog (worker side)."""
        if self.kind == "none":
            return None
        if self.kind == "pickle":
            return pickle.loads(self.payload)
        target, args, kwargs, attribute = self.payload
        module_name, _, attr_name = target.partition(":")
        factory = getattr(importlib.import_module(module_name), attr_name)
        value = factory(*args, **kwargs)
        if attribute is not None:
            value = getattr(value, attribute)
        return value

    def __repr__(self) -> str:
        return "CatalogSpec(%s)" % (self.kind,)


def _open_catalog_payload(payload):
    """Fork ships the live catalog object; spawn ships a CatalogSpec."""
    if isinstance(payload, CatalogSpec):
        return payload.open()
    return payload


# -- wire protocol ---------------------------------------------------------------


@dataclass(frozen=True)
class _ExecuteRequest:
    """One query, parent → worker.  ``payload`` is the pickled
    ``(plan, estimators-or-None)`` pair produced by :func:`encode_query`."""

    query_id: str
    name: str
    payload: bytes
    deadline_seconds: Optional[float]
    target_samples: int
    engine: str
    bounds: Tuple[str, ...]


class _CatalogRelativePickler(pickle.Pickler):
    """Pickles plans *relative to* a catalog: tables and indexes travel by
    their catalog key.

    Scan operators embed their :class:`~repro.storage.table.Table` and
    index joins and seeks their index, so a naive plan pickle ships every
    referenced table's rows (and every index's buckets) on every submit —
    megabytes per query, and the dominant cost of the process backend.
    The worker already holds an identical catalog (inherited under fork,
    re-opened from the :class:`CatalogSpec` under spawn), so any table or
    index that *is* the catalog's (by identity) crosses as its key — a
    table's name, ``(kind, table, column)`` for an index — and is re-bound
    worker-side.  Objects outside the catalog — or any payload pickled
    with no catalog at all — still embed in full.
    """

    def __init__(self, buffer, catalog) -> None:
        super().__init__(buffer, pickle.HIGHEST_PROTOCOL)
        self._keys = {}
        if catalog is None:
            return
        for name in catalog.table_names():
            self._keys[id(catalog.table(name))] = name
            for column in catalog.indexed_columns(name):
                for kind, index in (
                    ("hash", catalog.hash_index(name, column)),
                    ("sorted", catalog.sorted_index(name, column)),
                ):
                    if index is not None:
                        self._keys[id(index)] = (kind, name, column)

    def persistent_id(self, obj):
        return self._keys.get(id(obj))


class _CatalogRelativeUnpickler(pickle.Unpickler):
    def __init__(self, buffer, catalog) -> None:
        super().__init__(buffer)
        self._catalog = catalog

    def persistent_load(self, pid):
        catalog = self._catalog
        if catalog is None:
            raise pickle.UnpicklingError(
                "payload references catalog object %r but the worker has no "
                "catalog" % (pid,)
            )
        if isinstance(pid, str):
            return catalog.table(pid)
        kind, table, column = pid
        index = (
            catalog.hash_index(table, column) if kind == "hash"
            else catalog.sorted_index(table, column)
        )
        if index is None:
            raise pickle.UnpicklingError(
                "payload references %s index on %s.%s but the worker's "
                "catalog has none" % pid
            )
        return index


def encode_query(plan, estimators, catalog=None) -> bytes:
    """Pickle a query for the wire; raised errors surface at admission."""
    toolkit = list(estimators) if estimators is not None else None
    buffer = io.BytesIO()
    _CatalogRelativePickler(buffer, catalog).dump((plan, toolkit))
    return buffer.getvalue()


def decode_query(payload: bytes, catalog):
    """Worker-side inverse of :func:`encode_query`."""
    return _CatalogRelativeUnpickler(io.BytesIO(payload), catalog).load()


def _encode_error(error: BaseException) -> bytes:
    """Pickle an exception so the parent can re-raise it faithfully.

    Round-trips the pickle: exceptions with custom ``__init__``
    signatures (e.g. :class:`DegenerateBoundsError`) can pickle but fail
    to *unpickle*, and that failure must happen here — with the traceback
    still in hand — not in the parent."""
    try:
        blob = pickle.dumps(error, pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
        return blob
    except Exception:
        return pickle.dumps(ServiceError(
            "worker query failed: %s: %s\n%s"
            % (type(error).__name__, error, traceback.format_exc())
        ))


# -- worker side -----------------------------------------------------------------


#: One refresh of a 60 Hz progress display.  Cadence samples a worker
#: produces faster than a display can show them cross the pipe together,
#: one message per refresh.  A fact about displays, not a tuning knob:
#: throughput is flat from 15 Hz to 240 Hz (DESIGN.md §2).
DISPLAY_INTERVAL = 1.0 / 60.0


class _Wire:
    """The one writer on a worker's pipe while it runs one query.

    Every message to the parent goes through here.  Cadence samples are
    held in :attr:`pending` and cross as one ``("events", id, [event, …])``
    message: at once for the query's first sample (first paint waits for
    nothing), afterwards when a display interval has passed since the last
    flush — looked at when a sample arrives and, through :meth:`poll`, at
    every control check, so a phase that produces no samples cannot strand
    one.  :meth:`send` flushes before it writes, so a ``degraded``,
    ``probe`` or ``done`` message never overtakes a sample emitted before
    it.  One pickle per batch also means objects the events share (a
    :class:`~repro.core.observe.PipelineSnapshot` reused while its
    pipeline is idle) arrive shared.
    """

    def __init__(self, conn, query_id: str, clock=time.monotonic) -> None:
        self.conn = conn
        self.query_id = query_id
        self.clock = clock
        self.pending: list = []
        #: when samples last crossed; None until the first one has
        self.flushed_at: Optional[float] = None

    def sample(self, event) -> None:
        self.pending.append(event)
        self.poll()

    def poll(self) -> None:
        if self.pending and (
            self.flushed_at is None
            or self.clock() - self.flushed_at >= DISPLAY_INTERVAL
        ):
            self.flush()

    def flush(self) -> None:
        if self.pending:
            events, self.pending = self.pending, []
            self.flushed_at = self.clock()
            self.conn.send(("events", self.query_id, events))

    def send(self, kind: str, *fields) -> None:
        self.flush()
        self.conn.send((kind, self.query_id) + fields)


class _ProbeServer:
    """Answers the parent's on-demand sample requests at tick boundaries.

    The parent increments a shared counter; the worker's control check
    calls :meth:`maybe_serve`, which notices the counter moved, takes a
    :meth:`~repro.core.runner.RunnerProbe.live_sample` under the monitor's
    lock and ships it back tagged with the counter value.  Before the probe
    attaches (runner setup) it answers ``None`` immediately so the parent's
    ``sample()`` never blocks on a phase that cannot sample."""

    def __init__(self, wire: _Wire, flag) -> None:
        self.wire = wire
        self.flag = flag
        self.probe = None
        self._served = flag.value

    def attach(self, probe) -> None:
        self.probe = probe

    def maybe_serve(self) -> None:
        request = self.flag.value
        if request == self._served:
            return
        probe = self.probe
        sample = None
        if probe is not None:
            with probe.monitor.lock:
                sample = probe.live_sample()
        self._served = request
        self.wire.send("probe", request, sample)


def _worker_control(wire: _Wire, probe_server: _ProbeServer, cancel_flag,
                    name: str, deadline_seconds: Optional[float]):
    """The worker process's control check for one query: serve probe
    requests, let the pipe flush a quiet phase, then honour the shared
    cancel flag and the deadline (which starts now)."""
    deadline_at = (
        None if deadline_seconds is None
        else time.monotonic() + deadline_seconds
    )

    def control() -> None:
        probe_server.maybe_serve()
        wire.poll()
        if cancel_flag.value:
            raise cancelled_error(name)
        if deadline_at is not None and time.monotonic() >= deadline_at:
            raise timeout_error(name, deadline_seconds)

    return control


def _worker_main(conn, catalog_payload, toolkit_factory, cancel_flag, probe_flag):
    """Entry point of one worker process: serve requests until told to stop."""
    catalog = _open_catalog_payload(catalog_payload)
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            return
        _serve_request(
            _Wire(conn, request.query_id),
            catalog, toolkit_factory, cancel_flag, probe_flag, request,
        )


def _serve_request(wire: _Wire, catalog, toolkit_factory, cancel_flag,
                   probe_flag, request: _ExecuteRequest) -> None:
    state, report, error = QueryState.FAILED, None, None
    try:
        plan, estimators = decode_query(request.payload, catalog)
        probe_server = _ProbeServer(wire, probe_flag)

        def on_degrade(estimator_name: str, reason: str) -> None:
            wire.send("degraded", estimator_name, reason)

        toolkit = estimators if estimators is not None else toolkit_factory()
        probe_toolkit = toolkit_factory() if estimators is None else None
        wrapped = [ResilientEstimator(e, on_degrade) for e in toolkit]
        control = _worker_control(
            wire, probe_server, cancel_flag, request.name,
            request.deadline_seconds,
        )
        runner = ProgressRunner(
            plan,
            wrapped,
            catalog,
            target_samples=request.target_samples,
            # Only cadence samples cross the pipe live: they feed
            # handle.progress().  Everything else the parent needs rides
            # in the final report.
            sinks=(ForwardingSink(wire.sample, kinds=("sample",)),),
            engine=request.engine,
            bounds=request.bounds,
            monitor_factory=lambda: ServiceExecutionMonitor(control),
            on_probe=probe_server.attach,
            probe_estimators=probe_toolkit,
        )
        state, report, error = run_outcome(runner.run)
    except Exception as exc:
        error = exc
    try:
        wire.send(
            "done", state.value,
            pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
            if report is not None else None,
            _encode_error(error) if error is not None else None,
        )
    except Exception:
        # A broken pipe means the parent is gone; nothing left to report to.
        pass


# -- parent side ------------------------------------------------------------------


class _ProbeBox:
    """Parent-side rendezvous for probe replies of one in-flight query."""

    def __init__(self, handle: QueryHandle) -> None:
        self.handle = handle
        self.condition = threading.Condition()
        self.last_id = 0
        self.last_sample: Optional[TraceSample] = None
        self.aborted = False

    def deliver(self, request_id: int, sample: Optional[TraceSample]) -> None:
        with self.condition:
            self.last_id = request_id
            self.last_sample = sample
            self.condition.notify_all()

    def abort(self) -> None:
        with self.condition:
            self.aborted = True
            self.condition.notify_all()

    def wait_for(self, request_id: int, timeout: float) -> Optional[TraceSample]:
        deadline = time.monotonic() + timeout
        with self.condition:
            while self.last_id < request_id and not self.aborted:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.handle.done:
                    return None
                # Short waits so a query finishing without a reply (the
                # worker raced past its last boundary) unparks promptly.
                self.condition.wait(min(remaining, 0.05))
            if self.aborted or self.last_id < request_id:
                return None
            return self.last_sample


class _WorkerSlot:
    """One worker process plus the parent-side shepherd that feeds it."""

    #: ceiling on one on-demand sample round trip; a worker between tick
    #: batches answers in microseconds, so hitting this means the query is
    #: ending (the caller gets None, exactly like a detached thread probe)
    PROBE_TIMEOUT = 2.0

    def __init__(self, pool: "ProcessPool", index: int) -> None:
        self.pool = pool
        self.index = index
        self.process = None
        self.conn = None
        ctx = pool.ctx
        # lock=False: single-writer flags on aligned machine words; the
        # worker only ever reads them.
        self.cancel_flag = ctx.RawValue("b", 0)
        self.probe_flag = ctx.RawValue("q", 0)

    # -- process lifecycle ------------------------------------------------------

    def start_process(self) -> None:
        ctx = self.pool.ctx
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.pool.catalog_payload(),
                self.pool.service.toolkit_factory,
                self.cancel_flag,
                self.probe_flag,
            ),
            name="repro-query-proc-%d" % (self.index,),
            daemon=True,
        )
        with _fork_guard(self.pool.start_method):
            process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn

    def restart_process(self) -> None:
        self.discard_process()
        if not self.pool.service.admission._closed:
            self.start_process()

    def discard_process(self) -> None:
        process, conn = self.process, self.conn
        self.process = self.conn = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)

    def stop_process(self) -> None:
        """Ask the worker to leave; terminate it if it will not."""
        if self.process is not None:
            try:
                self.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
            self.process.join(timeout=5.0)
        self.discard_process()

    # -- the shepherd -----------------------------------------------------------

    def shepherd_loop(self) -> None:
        admission = self.pool.service.admission
        while True:
            handle = admission.take()
            if handle is None:
                self.stop_process()
                return
            self.run_query(handle)

    def run_query(self, handle: QueryHandle) -> None:
        service = self.pool.service
        if not service._begin(handle):
            return
        box = _ProbeBox(handle)
        self.cancel_flag.value = 0
        self.probe_flag.value = 0
        handle._bind_backend(
            on_cancel=self._signal_cancel,
            sampler=lambda: self._remote_sample(box),
        )
        state, report, error = QueryState.FAILED, None, None
        try:
            request = _ExecuteRequest(
                query_id=handle.query_id,
                name=handle.name,
                payload=handle._wire,
                deadline_seconds=handle.deadline_seconds,
                target_samples=handle._target_samples,
                engine=service.engine,
                bounds=service.bounds,
            )
            try:
                self.conn.send(request)
            except (OSError, ValueError, AttributeError) as exc:
                error = ServiceError(
                    "could not dispatch query %r to its worker: %s"
                    % (handle.name, exc)
                )
                self.restart_process()
            else:
                state, report, error = self.pump(handle, box)
        except Exception as exc:  # pragma: no cover - shepherd must survive
            error = exc
        finally:
            box.abort()
            handle._bind_backend(None, None)
        service.admission.complete(handle, state, report=report, error=error)

    def pump(self, handle: QueryHandle, box: _ProbeBox):
        """Apply the worker's event stream to the handle until ``done``;
        returns the query's ``(state, report, error)``."""
        service = self.pool.service
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                self.restart_process()
                return QueryState.FAILED, None, ServiceError(
                    "worker process died while running query %r"
                    % (handle.name,)
                )
            kind = message[0]
            if kind == "events":
                events = message[2]
                handle._publish(events[-1], count=len(events))
                # Mirror the thread backend: per-query sinks get every
                # cadence sample, in order, identical on either backend.
                sinks = handle._sinks
                if sinks:
                    for event in events:
                        emit_to_all(sinks, event)
            elif kind == "degraded":
                service._record_degraded(handle, message[2], message[3])
            elif kind == "probe":
                box.deliver(message[2], message[3])
            elif kind == "done":
                _, _, state, report_blob, error_blob = message
                return (
                    QueryState(state),
                    report_blob and pickle.loads(report_blob),
                    error_blob and pickle.loads(error_blob),
                )

    # -- handle-facing hooks -----------------------------------------------------

    def _signal_cancel(self) -> None:
        self.cancel_flag.value = 1

    def _remote_sample(self, box: _ProbeBox) -> Optional[TraceSample]:
        if box.aborted or box.handle.state is not QueryState.RUNNING:
            return None
        with box.condition:
            request_id = self.probe_flag.value + 1
            self.probe_flag.value = request_id
        return box.wait_for(request_id, timeout=self.PROBE_TIMEOUT)


class ProcessPool:
    """``max_workers`` worker processes, each fed by a shepherd thread.

    The shepherds take from the service's admission queue (so tenant
    fairness, backpressure and shutdown work identically to the thread
    backend) and mirror the thread worker's life-cycle calls — ``_begin`` /
    ``_record_degraded`` / ``admission.complete`` — while the query itself
    executes in the worker process."""

    def __init__(self, service, max_workers: int) -> None:
        self.service = service
        self.start_method = service.options.start_method
        self.ctx = multiprocessing.get_context(self.start_method)
        self._catalog_payload = None
        self._payload_ready = False
        self.slots = [_WorkerSlot(self, index) for index in range(max_workers)]
        # Processes first, from the (still single-threaded) constructor —
        # forking after the shepherds exist would clone live threads.
        for slot in self.slots:
            slot.start_process()
        self.threads = [
            threading.Thread(
                target=slot.shepherd_loop,
                name="repro-query-shepherd-%d" % (slot.index,),
                daemon=True,
            )
            for slot in self.slots
        ]
        for thread in self.threads:
            thread.start()

    def catalog_payload(self):
        """What crosses into a new worker: the catalog (fork) or a spec."""
        if self.start_method == "fork":
            return self.service.catalog
        if not self._payload_ready:
            spec = self.service.catalog_spec
            if spec is None:
                spec = CatalogSpec.from_catalog(self.service.catalog)
            self._catalog_payload = spec
            self._payload_ready = True
        return self._catalog_payload
