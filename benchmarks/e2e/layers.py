"""Per-layer metrics: each layer timed from outside, in a traced run.

The probes below call one layer's public functions over the workload's
own statements, inside spans, after the closed loop has finished; nothing
inside the program is instrumented.  They never feed the end-to-end
metrics, which are taken with tracing off.

Counts marked *exact* (``runner.samples``, ``observe.events``,
``estimators.*.mean_ratio_err``, ``bounds.sqrt_ub_over_lb_geomean``) come
from fresh sessions over seeded data and repeat bit for bit; a perf change
that moves one of them changed behaviour, not speed.

Service, pool and server probes use only statements over the workload's
primary catalog: a service is bound to one catalog.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
import threading
import time
from typing import Dict, List

import repro
from repro.core.bounds import BoundsTracker
from repro.core.observe import JsonlTraceWriter, MemorySink
from repro.engine.executor import execute
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators.base import ExecutionContext
from repro.options import ENGINES, ExecutionOptions
from repro.server import ReproServer, ServerConfig, wsproto
from repro.server.bridge import sample_to_dict
from repro.service import QueryService
from repro.sql import plan_query
from repro.stats import StatisticsManager

from client import LoadClient
from oracle import Reference
from tracing import Tracer
from workloads import (
    ALL_ESTIMATORS,
    ArrivalSink,
    Pass,
    Request,
    Workload,
)

#: repetitions of a snapshot at one paused instant
_SNAPSHOT_REPS = 5
#: paused instants per plan
_SNAPSHOT_INSTANTS = 50
#: what an infinite ratio error counts as in ``mean_ratio_err``
_RATIO_ERROR_CAP = 1e6


def measure(workload: Workload, tracer: Tracer, passes: List[Pass],
            found: Dict[str, Reference]) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    distinct = _distinct(workload.requests)
    primary = [r for r in distinct if r.session.catalog is workload.catalog]
    metrics: Dict[str, float] = {}
    # Not a property of the program: how fast the box was during the
    # run, to be looked at before two traced runs' timings are compared.
    metrics["machine.gauge_ms"] = 1e3 * statistics.median(
        workload.gauge.readings
    )
    metrics["trace.overhead_frac"] = _trace_overhead(passes)
    metrics.update(_setup(workload, tracer))
    metrics.update(_engines(distinct, tracer, found))
    metrics.update(_runner(distinct, tracer, found))
    metrics.update(_bounds(workload, distinct, found))
    metrics.update(_estimators_and_events(workload, distinct, tracer))
    baseline = _default_run_seconds(workload, primary, tracer)
    metrics.update(_thread_service(workload, primary, tracer, baseline))
    # Worker processes fork before the server's threads exist.
    metrics.update(_process_pool(workload, primary, tracer, baseline))
    metrics.update(_server(workload, primary, tracer, found))
    metrics.update(_sql(workload, tracer))
    return metrics


def _distinct(requests: List[Request]) -> List[Request]:
    seen: Dict[str, Request] = {}
    for request in requests:
        seen.setdefault(request.klass, request)
    return list(seen.values())


def _trace_overhead(passes: List[Pass]) -> float:
    """Median traced pass over median untraced pass, minus one (odd
    passes recorded request spans, even passes did not)."""
    walls = [[], []]
    for done in passes:
        walls[done.number % 2].append(done.wall * done.scale)
    return statistics.median(walls[1]) / statistics.median(walls[0]) - 1.0


# -- set-up layers ------------------------------------------------------------------


def _setup(workload: Workload, tracer: Tracer) -> Dict[str, float]:
    datagen = tracer.seconds("workloads.datagen")
    if not tracer.named("stats.analyze"):
        # The adversarial generators analyze inside the generation call:
        # analyze once more to split the two.
        catalogs = {id(r.session.catalog): r.session.catalog
                    for r in workload.requests}
        with tracer.span("stats.analyze"):
            for catalog in catalogs.values():
                StatisticsManager(catalog).analyze_all()
        datagen -= tracer.seconds("stats.analyze")
    return {
        "workloads.datagen_s": datagen,
        "stats.analyze_s": tracer.seconds("stats.analyze"),
    }


# -- engine ---------------------------------------------------------------------------


def _engines(distinct: List[Request], tracer: Tracer,
             found: Dict[str, Reference]) -> Dict[str, float]:
    """Bare ``execute`` speed per engine over the statement list.

    The oracle already spanned the interpreted and the default engine.
    Every other engine runs twice, cold then warm: the difference is what
    the first touch of the tables cost it (the columnar engine's column
    views, cached per table for the life of the process).
    """
    ticks = sum(found[request.klass].total for request in distinct)
    metrics: Dict[str, float] = {}
    for engine in ENGINES:
        name = "engine.%s" % engine
        if not tracer.named(name):
            for span_name in (name + ".cold", name):
                for request in distinct:
                    plan = request.make_plan()
                    with tracer.span(span_name, request.klass):
                        execute(plan, engine=engine)
        metrics[name + ".ticks_per_s"] = ticks / tracer.seconds(name)
    metrics["storage.column_views_s"] = (
        tracer.seconds("engine.columnar.cold")
        - tracer.seconds("engine.columnar")
    )
    return metrics


def _runner(distinct: List[Request], tracer: Tracer,
            found: Dict[str, Reference]) -> Dict[str, float]:
    """The instrumented run against the bare one, from the oracle's runs."""
    profiles = [found[request.klass].report.profile for request in distinct]
    ticks = sum(profile.ticks for profile in profiles)
    samples = sum(profile.samples for profile in profiles)
    instrumented = tracer.seconds("runner.solo")
    bare = tracer.seconds(
        "engine.%s" % ExecutionOptions().resolve().engine
    )
    return {
        "runner.instrumented_ticks_per_s": ticks / instrumented,
        "runner.overhead_frac": 1.0 - bare / instrumented,
        "runner.samples": samples,
        "runner.sample_us": 1e6 * sum(
            profile.sample_seconds for profile in profiles
        ) / samples,
    }


# -- bounds -----------------------------------------------------------------------------


def _bounds(workload: Workload, distinct: List[Request],
            found: Dict[str, Reference]) -> Dict[str, float]:
    """Snapshot cost at paused instants; bound tightness from the traces."""
    seconds = 0.0
    snapshots = 0
    for request in distinct:
        plan = request.make_plan()
        tracker = BoundsTracker(
            plan, request.session.catalog,
            bounds=workload.run_options.get("bounds"),
        )
        monitor = ExecutionMonitor()
        tracker.attach(monitor)
        spent = [0.0, 0]

        def paused(_monitor, tracker=tracker, spent=spent) -> None:
            # A second plain snapshot would be answered from the memo:
            # restore the instant's dirty set before each repetition.
            saved = tracker.dirty_flags()
            started = time.perf_counter()
            for _ in range(_SNAPSHOT_REPS):
                tracker.restore_dirty(saved)
                tracker.snapshot()
            spent[0] += time.perf_counter() - started
            spent[1] += _SNAPSHOT_REPS

        total = found[request.klass].total
        monitor.add_observer(
            paused, every=max(1, total // _SNAPSHOT_INSTANTS),
        )
        execute(plan, ExecutionContext(monitor))
        tracker.detach()
        seconds += spent[0]
        snapshots += spent[1]
    log_sum = 0.0
    count = 0
    for request in distinct:
        for sample in found[request.klass].trace:
            if sample["lower_bound"] > 0:
                log_sum += 0.5 * math.log(
                    sample["upper_bound"] / sample["lower_bound"]
                )
                count += 1
    return {
        "bounds.snapshot_us": 1e6 * seconds / snapshots,
        "bounds.sqrt_ub_over_lb_geomean": math.exp(log_sum / count),
    }


# -- estimators and the event stream ------------------------------------------------------


def _estimators_and_events(workload: Workload, distinct: List[Request],
                           tracer: Tracer) -> Dict[str, float]:
    """All seven estimators on the statement list, second pass reported.

    Fresh sessions, so ``feedback`` and ``robust`` hold exactly one pass
    of history when measured: the same learning state on every run.  The
    second pass's events are what the event-sink probe replays.
    """
    options = dict(workload.run_options)
    options["estimators"] = list(ALL_ESTIMATORS)
    sessions = {
        id(request.session.catalog):
            repro.connect(catalog=request.session.catalog)
        for request in distinct
    }

    def one_pass(span_name: str, sink: MemorySink) -> list:
        reports = []
        for request in distinct:
            session = sessions[id(request.session.catalog)]
            plan = request.make_plan()
            with tracer.span(span_name, request.klass):
                reports.append(session.run(plan, sinks=[sink], **options))
        return reports

    one_pass("estimators.cold", MemorySink())
    sink = MemorySink()
    reports = one_pass("estimators.pass", sink)
    metrics: Dict[str, float] = {}
    for name in ALL_ESTIMATORS:
        profiles = [report.profile.estimators[name] for report in reports]
        metrics["estimators.%s.estimate_us" % name] = 1e6 * sum(
            profile.total_seconds for profile in profiles
        ) / sum(profile.calls for profile in profiles)
        # An estimate of zero is an infinite ratio error; capped, so the
        # mean stays a number JSON can carry.
        metrics["estimators.%s.mean_ratio_err" % name] = statistics.fmean(
            min(error, _RATIO_ERROR_CAP)
            for report in reports
            for error in report.trace.ratio_errors(name, min_actual=0.01)
        )
    writer = JsonlTraceWriter(os.devnull)
    with tracer.span("observe.emit"):
        for event in sink.events:
            writer.emit(event)
    writer.close()
    metrics["observe.events"] = len(sink.events)
    metrics["observe.emit_us"] = (
        1e6 * tracer.seconds("observe.emit") / len(sink.events)
    )
    return metrics


# -- service tiers ------------------------------------------------------------------------


def _default_run_seconds(workload: Workload, primary: List[Request],
                         tracer: Tracer) -> float:
    """``Session.run`` with default options over the primary statements:
    what the service tiers' serial passes are compared against."""
    if not workload.run_options:
        klasses = {request.klass for request in primary}
        return sum(
            span.seconds for span in tracer.named("runner.solo")
            if span.query_id in klasses
        )
    session = repro.connect(catalog=workload.catalog)
    for request in primary:
        with tracer.span("runner.default", request.klass):
            session.run(request.make_plan())
    return tracer.seconds("runner.default")


def _serial_pass(service: QueryService, primary: List[Request],
                 tracer: Tracer, span_name: str) -> List[float]:
    """One query in flight at a time; first-sample delays in seconds."""
    delays = []
    for request in primary:
        sink = ArrivalSink()
        with tracer.span(span_name, request.klass):
            submitted = time.perf_counter()
            service.submit(request.make_plan(), sinks=[sink]).result()
        delays.append(sink.first_sample - submitted)
    return delays


def _thread_service(workload: Workload, primary: List[Request],
                    tracer: Tracer, baseline: float) -> Dict[str, float]:
    events = MemorySink()
    service = QueryService(
        workload.catalog,
        options=ExecutionOptions(backend="thread", max_workers=1),
        sinks=[events],
    )
    try:
        _serial_pass(service, primary, tracer, "service.thread")
    finally:
        service.shutdown()
    # The worker may announce query_start before the submitter has
    # announced query_queued, so pair the two after the fact.
    at: Dict[str, Dict[object, float]] = {"query_queued": {}, "query_start": {}}
    for event in events.events:
        if event.kind in at:
            at[event.kind][event.payload["query_id"]] = event.elapsed_seconds
    waits = [
        started - at["query_queued"][query_id]
        for query_id, started in at["query_start"].items()
    ]
    return {
        "service.thread.overhead_frac":
            tracer.seconds("service.thread") / baseline - 1.0,
        "service.thread.queue_wait_ms": 1e3 * statistics.fmean(waits),
    }


def _process_pool(workload: Workload, primary: List[Request],
                  tracer: Tracer, baseline: float) -> Dict[str, float]:
    def pool(workers: int) -> QueryService:
        return QueryService(workload.catalog, options=ExecutionOptions(
            backend="process", max_workers=workers,
        ))

    with tracer.span("procpool.worker_start"):
        one = pool(1)
    try:
        delays = _serial_pass(one, primary, tracer, "procpool.serial")
    finally:
        one.shutdown()
    many = pool(workload.nproc)
    try:
        slots = threading.Semaphore(workload.nproc)
        with tracer.span("procpool.parallel"):
            for request in primary:
                slots.acquire()
                handle = many.submit(request.make_plan(), block=True)
                handle.add_done_callback(lambda _handle: slots.release())
            for _ in range(workload.nproc):
                slots.acquire()
        failed = [h for h in many.handles() if h.error is not None]
        if failed:
            raise failed[0].error
    finally:
        many.shutdown()
    serial = tracer.seconds("procpool.serial")
    return {
        "procpool.worker_start_s": tracer.seconds("procpool.worker_start"),
        "procpool.overhead_frac": serial / baseline - 1.0,
        "procpool.scaling": serial / tracer.seconds("procpool.parallel"),
        "procpool.first_sample_ms": 1e3 * statistics.fmean(delays),
    }


# -- network tier -------------------------------------------------------------------------


class _AdmissionSink(MemorySink):
    """Stamps ``tenant_admitted`` events with the harness's clock."""

    def __init__(self) -> None:
        super().__init__()
        self.admitted_at: Dict[str, float] = {}

    def emit(self, event) -> None:
        if event.kind == "tenant_admitted":
            self.admitted_at[event.payload["query_id"]] = time.perf_counter()


def _server(workload: Workload, primary: List[Request], tracer: Tracer,
            found: Dict[str, Reference]) -> Dict[str, float]:
    admissions = _AdmissionSink()
    server = ReproServer(workload.catalog, config=ServerConfig(
        options=ExecutionOptions(backend="thread", max_workers=workload.nproc),
        sinks=[admissions],
    ))
    posts, handshakes, admit_waits, terminal_bytes = [], [], [], []
    frames = []
    with server.running():
        client = LoadClient(server.config.host, server.port)
        for _ in range(30):
            with tracer.span("server.healthz"):
                client.get("/healthz")
        for _klass, sql in workload.probe_sql * 2:
            sent = time.perf_counter()
            posted = client.post_query(sql)
            posts.append(time.perf_counter() - sent)
            stream = client.stream(posted["id"], keep_frames=True)
            if b'"state": "done"' not in stream.terminal:
                raise RuntimeError("server probe: %r did not finish" % sql)
            handshakes.append(stream.upgraded - stream.connected)
            admit_waits.append(admissions.admitted_at[posted["id"]] - sent)
            terminal_bytes.append(len(stream.terminal))
            frames.extend(stream.frames)
            tracer.record("server.stream", stream.upgraded, stream.last_frame)
        # In-process admission of plan factories: the scheduler alone.
        for request in primary:
            plan = request.make_plan()
            with tracer.span("scheduler.submit", request.klass):
                server.submit_local("probe", lambda plan=plan: plan,
                                    stream=False)
            server.scheduler.wait_all()
        latency = client.get("/metrics")["latency"]
    healthz = [span.seconds for span in tracer.named("server.healthz")]
    metrics = {
        "server.http_rtt_us": 1e6 * statistics.median(healthz),
        "server.post_ms": 1e3 * statistics.median(posts),
        "server.ws_handshake_ms": 1e3 * statistics.median(handshakes),
        "server.frames_per_s": len(frames) / tracer.seconds("server.stream"),
        "server.terminal_frame_kb":
            statistics.fmean(terminal_bytes) / 1024.0,
        "server.metrics_latency_p50_ms": 1e3 * latency["p50_seconds"],
        "server.metrics_latency_p99_ms": 1e3 * latency["p99_seconds"],
        "scheduler.submit_us": 1e6 * statistics.median(
            span.seconds for span in tracer.named("scheduler.submit")
        ),
        "scheduler.admit_wait_ms": 1e3 * statistics.median(admit_waits),
    }
    metrics.update(_wire(frames, tracer, primary, found))
    return metrics


def _wire(frames, tracer: Tracer, primary: List[Request],
          found: Dict[str, Reference]) -> Dict[str, float]:
    """Frame encode and decode over the recorded frames; sample
    serialization over the sealed samples the terminal frames carried."""
    texts = [payload.decode("utf-8") for _arrival, payload in frames]
    with tracer.span("wsproto.encode"):
        encoded = [wsproto.encode_text(text) for text in texts]
    with tracer.span("wsproto.decode"):
        for frame in encoded:
            wsproto.read_frame(io.BytesIO(frame).read)
    samples = [
        sample for request in primary
        for sample in found[request.klass].report.trace.samples
    ]
    with tracer.span("bridge.serialize"):
        for sample in samples:
            json.dumps(sample_to_dict(sample), sort_keys=True)
    return {
        "wsproto.encode_us": 1e6 * tracer.seconds("wsproto.encode") / len(texts),
        "wsproto.decode_us": 1e6 * tracer.seconds("wsproto.decode") / len(texts),
        "bridge.serialize_us":
            1e6 * tracer.seconds("bridge.serialize") / len(samples),
    }


def _sql(workload: Workload, tracer: Tracer) -> Dict[str, float]:
    repeats = 10
    for _klass, sql in workload.probe_sql:
        for _ in range(repeats):
            with tracer.span("sql.plan"):
                plan_query(sql, workload.catalog)
    return {"sql.plan_us": 1e6 * tracer.seconds("sql.plan") / (
        repeats * len(workload.probe_sql)
    )}
