"""The correctness oracle: every timed query is checked, outside the clock.

Per distinct statement of a workload, once per run:

* rows and total ticks of the default engine equal those of
  ``execute(plan, engine="interpreted")``, the executable specification;
* a solo ``Session.run`` on a fresh session gives the reference trace.

Per timed query:

* it completed, a sample reached the consumer, and its tick total equals
  the reference;
* on its sealed trace, at every sample, ``Curr <= LB <= total <= UB``,
  ``pmax >= actual`` and safe's ratio error is at most ``sqrt(UB/LB)`` —
  the paper's claims, which no change to the program may break;
* where traces repeat from run to run, the trace equals the solo trace:
  a terminal WebSocket frame or a worker process's report must carry
  exactly what a single-threaded run measures.

A violation marks that query failed; a failed query fails the run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import repro
from repro.engine.executor import execute
from repro.options import ExecutionOptions

from workloads import Pass, QueryRecord, Workload, sample_dict

#: slack on the two float-ratio checks (the inequalities hold exactly in
#: real arithmetic; a division and a square root each round once)
_RELATIVE_SLACK = 1e-9


class Reference:
    """What one statement must produce."""

    __slots__ = ("total", "trace", "report", "error")

    def __init__(self) -> None:
        self.total = 0
        self.trace: List[Dict[str, object]] = []
        #: the solo run's ProgressReport (the traced run profiles it)
        self.report = None
        #: set when the engines disagree on this statement
        self.error: Optional[str] = None


def references(workload: Workload, tracer) -> Dict[str, Reference]:
    """Reference results, one per distinct statement class.

    The three executions are spanned, so a traced run reads the bare
    engine speeds and the instrumented-run cost off the oracle's own work.
    """
    default_engine = ExecutionOptions().resolve().engine
    found: Dict[str, Reference] = {}
    for request in workload.requests:
        if request.klass in found:
            continue
        reference = found[request.klass] = Reference()
        plan = request.make_plan()
        with tracer.span("engine.interpreted", request.klass):
            spec = execute(plan, engine="interpreted")
        with tracer.span("engine.%s" % default_engine, request.klass):
            result = execute(plan)
        reference.total = spec.total_getnext
        if result.total_getnext != spec.total_getnext:
            reference.error = "%s engine ticks %d, interpreted %d" % (
                default_engine, result.total_getnext, spec.total_getnext,
            )
        elif result.rows != spec.rows:
            reference.error = (
                "%s engine rows differ from interpreted" % default_engine
            )
        # A fresh session: cold histories, so the trace is a function of
        # the statement and the data alone.
        solo = repro.connect(catalog=request.session.catalog)
        with tracer.span("runner.solo", request.klass):
            reference.report = solo.run(plan, **workload.run_options)
        reference.trace = [
            sample_dict(sample) for sample in reference.report.trace.samples
        ]
    return found


def trace_violation(trace: List[Dict[str, object]],
                    total: float) -> Optional[str]:
    """The first sample of a sealed trace that breaks a paper claim."""
    if not trace:
        return "empty trace"
    for position, sample in enumerate(trace):
        curr = sample["curr"]
        lower = sample["lower_bound"]
        upper = sample["upper_bound"]
        actual = sample["actual"]
        estimates = sample["estimates"]
        if not curr <= lower <= total <= upper:
            return "sample %d: Curr %r <= LB %r <= total %r <= UB %r fails" % (
                position, curr, lower, total, upper,
            )
        pmax = estimates.get("pmax")
        if pmax is not None and pmax < actual * (1 - _RELATIVE_SLACK):
            return "sample %d: pmax %r under-estimates actual %r" % (
                position, pmax, actual,
            )
        safe = estimates.get("safe")
        if safe is not None and actual > 0 and lower > 0:
            error = max(safe / actual, actual / safe) if safe > 0 else math.inf
            limit = math.sqrt(upper / lower)
            if error > limit * (1 + _RELATIVE_SLACK):
                return "sample %d: safe ratio error %r above sqrt(UB/LB) %r" % (
                    position, error, limit,
                )
    last = trace[-1]
    if last["actual"] != 1.0 or last["curr"] != total:
        return "terminal sample is not at progress 1"
    return None


def check(record: QueryRecord, reference: Reference,
          repeatable_traces: bool) -> Optional[str]:
    """Why ``record`` counts as failed (None: it passed)."""
    if record.error is not None:
        return record.error
    if reference.error is not None:
        return reference.error
    if record.first_sample is None:
        return "no sample reached the consumer"
    if record.ticks != reference.total:
        return "ticks %d, interpreted engine %d" % (
            record.ticks, reference.total,
        )
    violation = trace_violation(record.trace, reference.total)
    if violation is not None:
        return violation
    if repeatable_traces and record.trace != reference.trace:
        return "trace differs from the solo Session.run trace"
    return None


def verify(workload: Workload, passes: List[Pass],
           found: Dict[str, Reference]) -> int:
    """Check every query; failures land in ``record.error``.  Returns the
    number of failed queries."""
    stacks_degree_seq = "degree_seq" in workload.run_options.get("bounds", ())
    failed = 0
    for done in passes:
        for record in done.records:
            record.error = check(
                record, found[record.klass], workload.repeatable_traces,
            )
        # The overlay falls back to paper2005 silently when statistics are
        # missing; a pass in which it tightened nothing measured the wrong
        # thing, so none of its queries count.
        if stacks_degree_seq and not any(r.refined for r in done.records):
            for record in done.records:
                if record.error is None:
                    record.error = "degree_seq refined no bound in this pass"
        failed += sum(1 for r in done.records if r.error is not None)
    return failed
