"""The five workloads: what is built, what is asked, how it is driven.

Every workload is a closed loop over a fixed request list (one *pass* is
the list once), repeated in whole passes until the run's seconds are used
up, so every statement class is asked equally often.  Between passes the
loop is drained and the speed gauge read (see ``gauge.py``).  All sizes
are pinned in :data:`PINNED`; the seed decides the generated data, nothing
else.

A workload drives the unmodified program through one public entry point:

=================  ==========================================  ==========
workload           entry point                                 in flight
=================  ==========================================  ==========
tpch_mix           ``Session.run(plan, sinks=[sink])``         1
adversarial_joins  ``Session.run(plan, sinks=[sink])``         1
sampling_heavy     ``Session.run`` + 7 estimators + JSONL      1
server_stream      ``POST /queries`` then WebSocket            nproc
service_process    ``Session.submit`` on the process backend   nproc
=================  ==========================================  ==========
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import repro
from repro.core.observe import JsonlTraceWriter, ProgressEventSink
from repro.options import ExecutionOptions
from repro.server import ReproServer, ServerConfig
from repro.stats import StatisticsManager
from repro.workloads import (
    QUERIES,
    build_query,
    generate_tpch,
    make_example2,
    make_zipfian_join,
)

from client import LoadClient
from gauge import REFERENCE_SECONDS, SpeedGauge
from tracing import Tracer


@dataclass(frozen=True)
class Sizes:
    """The one pinned size every number is taken at."""

    tpch_scale: float = 0.01  # skew 2.0: 60 k lineitem rows
    adversarial_n: int = 100_000
    sampling_tpch_scale: float = 0.002


PINNED = Sizes()
#: the smoke self-test's reduced size; no reported number is taken at it
SMOKE = Sizes(tpch_scale=0.001, adversarial_n=5_000,
              sampling_tpch_scale=0.0005)

TPCH_SKEW = 2.0

#: the estimator names ``sampling_heavy`` samples (and the traced run
#: profiles on every workload)
ALL_ESTIMATORS = ("dne", "pmax", "safe", "hybrid-mu", "hybrid-var",
                  "feedback", "robust")

#: five statement classes of clearly different cost, so that with equal
#: counts the median falls inside the third class and p90 inside the fifth.
#: Dearest first: a pass then ends on its cheapest statements, which keeps
#: the idle tail at the drain between passes short.
SERVER_SQL = (
    ("lineitem-filter-sort",
     "SELECT l_orderkey, l_extendedprice FROM lineitem "
     "WHERE l_discount > 0.05 ORDER BY l_extendedprice DESC LIMIT 10"),
    ("lineitem-group",
     "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem "
     "GROUP BY l_returnflag"),
    ("orders-lineitem-join",
     "SELECT COUNT(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey "
     "WHERE o_orderstatus = 'F'"),
    ("customer-orders-join",
     "SELECT c_mktsegment, COUNT(*) FROM customer JOIN orders "
     "ON c_custkey = o_custkey GROUP BY c_mktsegment"),
    ("orders-group",
     "SELECT o_orderstatus, COUNT(*), SUM(o_totalprice) FROM orders "
     "GROUP BY o_orderstatus"),
)

#: the plan classes ``service_process`` keeps in flight, dearest first
SERVICE_QUERIES = (1, 10, 3, 6, 14)

#: passes after which peak memory is read: a fixed amount of work, so a
#: faster program is not charged for the extra queries it completes
RSS_PASSES = 3

#: statements of one class asked per pass on the two serving workloads
SERVING_REPEATS = 2


def peak_rss_mb() -> float:
    """High-water resident memory: this process plus live pool workers."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open("/proc/%d/status" % child.pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kilobytes += int(line.split()[1])
        except OSError:
            pass  # no /proc: the workers' share goes unreported
    return kilobytes / 1024.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


class Request:
    """One entry of a workload's request list."""

    __slots__ = ("klass", "session", "make_plan", "plan", "sql")

    def __init__(self, klass: str, session, make_plan, sql=None) -> None:
        self.klass = klass
        #: the thread-backend session over this request's catalog; the
        #: sequential workloads run on it, the oracle re-runs on it
        self.session = session
        #: builds a plan object nothing has run yet, for the oracle and
        #: the probes (a plan that ran in this process no longer pickles)
        self.make_plan = make_plan
        #: the plan object the closed loop asks with, pass after pass
        self.plan = make_plan()
        #: the statement's text, where the workload sends text
        self.sql = sql


class QueryRecord:
    """What the harness saw of one query, start to sealed result."""

    __slots__ = ("index", "klass", "submit", "first_sample", "end", "scale",
                 "ticks", "samples", "events", "trace", "refined", "error")

    def __init__(self, index: int, klass: str) -> None:
        self.index = index
        self.klass = klass
        self.submit = 0.0
        #: factor from this query's seconds to calibrated seconds
        self.scale = 1.0
        self.first_sample: Optional[float] = None
        self.end = 0.0
        self.ticks = 0
        #: samples in the sealed trace
        self.samples = 0
        #: events or frames that reached the consumer
        self.events = 0
        #: the sealed trace as a list of :func:`sample_dict` objects
        self.trace: List[Dict[str, object]] = []
        self.refined = 0
        #: why the query failed (None: it did not)
        self.error: Optional[str] = None


def sample_dict(sample) -> Dict[str, object]:
    """A sealed trace sample in the shape the terminal frame carries."""
    return {
        "curr": sample.curr,
        "actual": sample.actual,
        "estimates": dict(sample.estimates),
        "lower_bound": sample.lower_bound,
        "upper_bound": sample.upper_bound,
    }


class ArrivalSink(ProgressEventSink):
    """The harness's consumer: when did the first estimate arrive?"""

    def __init__(self) -> None:
        self.first_sample: Optional[float] = None
        self.events = 0
        self.refined = 0

    def emit(self, event) -> None:
        self.events += 1
        if event.kind == "sample":
            if self.first_sample is None:
                self.first_sample = time.perf_counter()
        elif event.kind == "bound_refined":
            self.refined += 1


class Pass:
    """One pass over the request list."""

    __slots__ = ("number", "records", "wall")

    def __init__(self, number: int, records: List[QueryRecord],
                 wall: float) -> None:
        self.number = number
        self.records = records
        #: seconds the pass kept the program busy, gauge readings left
        #: out: summed latencies where one query is in flight at a time,
        #: first submit to last completion where several are
        self.wall = wall

    @property
    def scale(self) -> float:
        """Factor from the pass's wall to calibrated seconds: its
        queries' factors, each weighted by the query's share of the time."""
        weight = sum(r.end - r.submit for r in self.records)
        return sum(
            (r.end - r.submit) * r.scale for r in self.records
        ) / weight

    @property
    def ticks(self) -> int:
        """GetNext ticks of the pass's completed queries."""
        return sum(r.ticks for r in self.records if r.error is None)


class Workload:
    """Build inputs from a seed, start the program, drive a closed loop."""

    name = ""
    #: keyword arguments of ``Session.run`` (empty: the program's defaults)
    run_options: Dict[str, object] = {}
    #: whether each query also streams to a ``JsonlTraceWriter``
    jsonl_sink = False
    #: a statement's sealed trace repeats exactly from run to run
    #: (false where estimators learn across a session's runs)
    repeatable_traces = True
    #: build degree statistics (only where ``degree_seq`` is stacked)
    degree_statistics = False
    #: ``(class, SQL)`` statements over :attr:`catalog` for the traced
    #: run's planner and network-tier probes
    probe_sql = SERVER_SQL

    def __init__(self, seed: int, sizes: Sizes, tracer: Tracer) -> None:
        self.seed = seed
        self.sizes = sizes
        #: records set-up spans, and request spans of traced passes
        self.tracer = tracer
        self.gauge = SpeedGauge()
        self.nproc = usable_cores()
        self.requests: List[Request] = []
        #: the catalog layer probes plan SQL and start services against
        self.catalog = None
        self._untraced = Tracer()
        self._trace_odd = False
        self._reading = 0.0
        #: resident high-water mark after RSS_PASSES passes of a loop
        self.peak_rss_mb = 0.0

    # -- set-up -------------------------------------------------------------------

    def setup(self) -> None:
        """Everything before the first request could be issued."""
        self.gauge.read()
        self.build()
        self.start()
        (warm_up,) = self.drive(0.0, min_passes=1)
        failed = [r for r in warm_up.records if r.error]
        if failed:
            raise RuntimeError(
                "%s warm-up: %s failed: %s"
                % (self.name, failed[0].klass, failed[0].error)
            )
        # Everything alive now is set-up state that lives to the end of
        # the run: take it out of the collector's sight, so a collection in
        # the timed region does not walk the tables (GC stays enabled).
        gc.collect()
        gc.freeze()

    def build(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Start whatever serves requests (sessions start lazily)."""

    def stop(self) -> None:
        """Stop what :meth:`start` started, and wait for it."""

    def _tpch(self, scale: float):
        """A skewed TPC-H database with statistics, generation traced."""
        with self.tracer.span("workloads.datagen"):
            db = generate_tpch(scale=scale, skew=TPCH_SKEW, seed=self.seed,
                               build_statistics=False)
        self.gauge.read()
        with self.tracer.span("stats.analyze"):
            if self.degree_statistics:
                StatisticsManager(db.catalog).analyze_all()
            else:
                StatisticsManager(
                    db.catalog, degree_generator=None,
                ).analyze_all()
        self.gauge.read()
        self.catalog = db.catalog
        return db

    # -- the closed loop ------------------------------------------------------------

    def drive(self, seconds: float, min_passes: int = 2,
              trace_odd_passes: bool = False) -> List[Pass]:
        """Run whole passes until ``seconds`` have gone by.

        With ``trace_odd_passes`` every second pass records request spans,
        so one loop yields both sides of the tracing-overhead comparison.
        """
        self._trace_odd = trace_odd_passes
        self._reading = self.gauge.read()
        passes: List[Pass] = []
        started = time.perf_counter()
        while (len(passes) < min_passes
               or time.perf_counter() - started < seconds):
            passes.append(self._run_pass(len(passes)))
            if len(passes) == RSS_PASSES:
                self.peak_rss_mb = peak_rss_mb()
        if len(passes) < RSS_PASSES:
            self.peak_rss_mb = peak_rss_mb()
        return passes

    def _bracketed(self, unit, readings: int = 1):
        """Run ``unit()`` between gauge readings; its result and the factor
        that turns its seconds into calibrated seconds.  The reading after
        one unit is the reading before the next."""
        before = self._reading
        result = unit()
        self._reading = after = statistics.median(
            self.gauge.read() for _ in range(readings)
        )
        return result, 2.0 * REFERENCE_SECONDS / (before + after)

    def _run_pass(self, number: int) -> Pass:
        """One request at a time, on the calling thread."""
        records = []
        first = number * len(self.requests)
        for index in range(first, first + len(self.requests)):
            record, scale = self._bracketed(lambda: self._issue(index))
            record.scale = scale
            records.append(record)
        return Pass(number, records, sum(r.end - r.submit for r in records))

    def _run_concurrent_pass(self, number: int, launch) -> Pass:
        """``launch(indexes)`` keeps ``nproc`` of the pass's requests in
        flight and returns their records once all have ended."""
        first = number * len(self.requests)
        indexes = range(first, first + len(self.requests))

        def unit():
            started = time.perf_counter()
            records = launch(indexes)
            return records, max(r.end for r in records) - started

        # A pass is bracketed only at its two ends: steadier readings there.
        (records, wall), scale = self._bracketed(unit, readings=3)
        records.sort(key=lambda record: record.index)
        for record in records:
            record.scale = scale
        return Pass(number, records, wall)

    def _begin(self, index: int):
        """The request, its record and the tracer its pass records into."""
        request = self.requests[index % len(self.requests)]
        traced = self._trace_odd and (index // len(self.requests)) % 2 == 1
        record = QueryRecord(index, request.klass)
        return request, record, (self.tracer if traced else self._untraced)

    def _issue(self, index: int) -> QueryRecord:
        """``Session.run`` with the harness's sink; sealed report back."""
        request, record, tracer = self._begin(index)
        sink = ArrivalSink()
        sinks: List[ProgressEventSink] = [sink]
        with tracer.span("request", query_id=index) as root:
            record.submit = time.perf_counter()
            try:
                if self.jsonl_sink:
                    sinks.append(JsonlTraceWriter(os.devnull))
                with tracer.span("request.run", index, root.id):
                    report = request.session.run(
                        request.plan, sinks=sinks, **self.run_options
                    )
            except Exception as exc:
                record.error = "%s: %s" % (type(exc).__name__, exc)
            record.end = time.perf_counter()
        if record.error is None:
            _fill_from_report(record, report)
        record.first_sample = sink.first_sample
        record.events = sink.events
        record.refined = sink.refined
        return record


def _tpch_requests(db, session, numbers) -> List[Request]:
    return [
        Request("tpch-q%d" % number, session,
                lambda number=number: build_query(db, number))
        for number in numbers
    ]


def _fill_from_report(record: QueryRecord, report) -> None:
    record.ticks = report.profile.ticks
    record.samples = len(report.trace.samples)
    record.trace = [sample_dict(sample) for sample in report.trace.samples]


class TpchMix(Workload):
    """All 22 TPC-H plans, default options: the engine does the work."""

    name = "tpch_mix"

    def build(self) -> None:
        db = self._tpch(self.sizes.tpch_scale)
        session = repro.connect(catalog=db.catalog)
        self.requests = _tpch_requests(db, session, sorted(QUERIES))


class AdversarialJoins(Workload):
    """The paper's zipfian and Example-2 joins: nested iteration, index
    seeks, the columnar engine's fallback subtrees, wide UB/LB bounds."""

    name = "adversarial_joins"
    probe_sql = (
        ("r1-count", "SELECT COUNT(*) FROM r1"),
        ("r2-count", "SELECT COUNT(*) FROM r2"),
        ("r2-group", "SELECT b, COUNT(*) FROM r2 GROUP BY b"),
        ("r1-r2-join", "SELECT COUNT(*) FROM r1 JOIN r2 ON a = b"),
        ("r1-filter-sort",
         "SELECT a FROM r1 WHERE a > 10 ORDER BY a DESC LIMIT 10"),
    )

    def build(self) -> None:
        n = self.sizes.adversarial_n
        rng = random.Random(self.seed)
        # The generators build data and statistics in one call; the traced
        # run re-analyzes to split the two (see ``layers._setup``).
        with self.tracer.span("workloads.datagen"):
            zipf = make_zipfian_join(n=n, z=2.0, order="random", seed=self.seed)
            # The seed places Example 2's one selected tuple and sizes its
            # fan-out within 10 % of n/10, so totals move with the seed
            # while the work stays within 1 %.
            example2 = make_example2(
                n=n,
                matches=n // 10 + rng.randrange(n // 100),
                selected_position=rng.randrange(n),
            )
        self.gauge.read()
        self.catalog = zipf.catalog
        zipf_session = repro.connect(catalog=zipf.catalog)
        example2_session = repro.connect(catalog=example2.catalog)
        self.requests = [
            Request("zipf-inl", zipf_session, zipf.inl_plan),
            Request("zipf-hash", zipf_session, zipf.hash_plan),
            Request("zipf-merge", zipf_session, zipf.merge_plan),
            # the Figure 7 variant (hot keys filtered out): a fifth class,
            # so the latency median does not sit on a class boundary
            Request("zipf-inl-skip", zipf_session,
                    lambda: zipf.inl_plan(skip_top_ranks=10)),
            Request("example2", example2_session, example2.inl_plan),
        ]


class SamplingHeavy(Workload):
    """Small TPC-H under the heaviest instrumentation: monitor, bounds,
    estimators and telemetry do most of the work, the engine little."""

    name = "sampling_heavy"
    run_options = {
        "estimators": list(ALL_ESTIMATORS),
        "bounds": ["paper2005", "degree_seq"],
        "target_samples": 200,
    }
    jsonl_sink = True
    repeatable_traces = False  # feedback and robust learn across runs
    degree_statistics = True

    def build(self) -> None:
        db = self._tpch(self.sizes.sampling_tpch_scale)
        session = repro.connect(catalog=db.catalog)
        self.requests = _tpch_requests(db, session, sorted(QUERIES))


class ServerStream(Workload):
    """SQL text over real sockets: HTTP, planner, scheduler, thread
    service, bridge and a few hundred WebSocket frames per query."""

    name = "server_stream"

    def build(self) -> None:
        db = self._tpch(self.sizes.tpch_scale)
        session = repro.connect(catalog=db.catalog)
        self.requests = [
            Request(klass, session,
                    lambda klass=klass, sql=sql: session.sql(sql, name=klass),
                    sql=sql)
            for _ in range(SERVING_REPEATS)
            for klass, sql in SERVER_SQL
        ]

    def start(self) -> None:
        self.server = ReproServer(self.catalog, config=ServerConfig(
            options=ExecutionOptions(backend="thread",
                                     max_workers=self.nproc),
        ))
        self.server.start_background()

    def stop(self) -> None:
        self.server.stop_background()

    def _run_pass(self, number: int) -> Pass:
        """``nproc`` client threads, each with a request in flight."""
        def launch(indexes) -> List[QueryRecord]:
            records: List[QueryRecord] = []
            remaining = iter(indexes)
            lock = threading.Lock()

            def client_loop() -> None:
                client = LoadClient(self.server.config.host, self.server.port)
                while True:
                    with lock:
                        index = next(remaining, None)
                    if index is None:
                        return
                    records.append(self._issue_over_sockets(client, index))

            threads = [
                threading.Thread(target=client_loop, name="e2e-client-%d" % i)
                for i in range(self.nproc)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return records

        return self._run_concurrent_pass(number, launch)

    def _issue_over_sockets(self, client: LoadClient,
                            index: int) -> QueryRecord:
        request, record, tracer = self._begin(index)
        stream = None
        with tracer.span("request", query_id=index) as root:
            record.submit = time.perf_counter()
            try:
                with tracer.span("request.post", index, root.id):
                    posted = client.post_query(request.sql)
                with tracer.span("request.stream", index, root.id):
                    stream = client.stream(posted["id"])
            except Exception as exc:
                record.error = "%s: %s" % (type(exc).__name__, exc)
            record.end = time.perf_counter()
        if stream is not None:
            record.end = stream.last_frame
            record.first_sample = stream.first_sample
            record.events = stream.frame_count
            fill_from_terminal_frame(record, stream.terminal)
        return record


def fill_from_terminal_frame(record: QueryRecord, payload: bytes) -> None:
    """Decode the ``end`` frame (outside the query's timed interval)."""
    try:
        end = json.loads(payload)
    except ValueError as exc:
        record.error = "terminal frame is not JSON: %s" % (exc,)
        return
    if end.get("event") != "end" or end.get("state") != "done":
        record.error = "stream ended %s/%s: %s" % (
            end.get("event"), end.get("state"), end.get("error"),
        )
        return
    record.ticks = int(end["total"])
    record.trace = end["trace"]
    record.samples = len(record.trace)


class ServiceProcess(Workload):
    """``Session.submit`` on worker processes: plan pickling, the event
    pipe, shared-memory control, real multi-core parallelism; no sockets."""

    name = "service_process"

    def build(self) -> None:
        db = self._tpch(self.sizes.tpch_scale)
        solo = repro.connect(catalog=db.catalog)
        # A plan object may be in flight only once: one object per slot of
        # the pass, so a class's two requests never share one.
        self.requests = _tpch_requests(
            db, solo, SERVICE_QUERIES * SERVING_REPEATS,
        )

    def start(self) -> None:
        self.session = repro.connect(
            catalog=self.catalog, backend="process", max_workers=self.nproc,
        )

    def stop(self) -> None:
        self.session.close()

    def _run_pass(self, number: int) -> Pass:
        """One submitter keeps ``nproc`` plans in flight."""
        def launch(indexes) -> List[QueryRecord]:
            slots = threading.Semaphore(self.nproc)
            pending = []
            for index in indexes:
                slots.acquire()
                pending.append(self._submit(index, slots))
            for _ in range(self.nproc):  # the queries still in flight
                slots.acquire()
            return [self._collect(*entry) for entry in pending]

        return self._run_concurrent_pass(number, launch)

    def _submit(self, index: int, slots: threading.Semaphore):
        request, record, tracer = self._begin(index)
        sink = ArrivalSink()
        root = tracer.span("request", query_id=index)
        root.__enter__()

        def on_done(_handle) -> None:
            # runs on the shepherd thread that sealed the report
            record.end = time.perf_counter()
            root.__exit__(None, None, None)
            slots.release()

        record.submit = time.perf_counter()
        try:
            with tracer.span("request.submit", index, root.id):
                handle = self.session.submit(
                    request.plan, sinks=[sink], block=True,
                )
        except Exception as exc:
            record.error = "%s: %s" % (type(exc).__name__, exc)
            on_done(None)
            return record, sink, None
        handle.add_done_callback(on_done)
        return record, sink, handle

    @staticmethod
    def _collect(record: QueryRecord, sink: ArrivalSink, handle) -> QueryRecord:
        if handle is not None:
            try:
                _fill_from_report(record, handle.result(timeout=0))
            except Exception as exc:
                record.error = "%s: %s" % (type(exc).__name__, exc)
        record.first_sample = sink.first_sample
        record.events = sink.events
        return record


WORKLOADS: Sequence[type] = (
    TpchMix, AdversarialJoins, SamplingHeavy, ServerStream, ServiceProcess,
)


def make(name: str, seed: int, sizes: Sizes, tracer: Tracer) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload(seed, sizes, tracer)
    raise SystemExit("unknown workload %r (choose from: %s)" % (
        name, ", ".join(w.name for w in WORKLOADS),
    ))
