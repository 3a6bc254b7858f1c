"""Drained instrumented runs: the root keeps no rows, and nothing else moves.

An instrumented run's product is its progress trace, so ``Session.run``
drives every engine through :func:`repro.engine.executor.run_root` with
``keep_rows=False``: the fused program has no result list, the columnar
root never transposes its last batch, the interpreter drops each row.  Only
that final append goes — every operator, the root's own expressions and
joins included, still runs.  Pinned here, on every engine × observer
cadences 1, 2 and 1000, over the 22 TPC-H plans and the adversarial join
plans: a drained ``Session.run`` has the same total ticks, per-operator
``rows_produced``, observer instants, sealed samples and events (timing
fields out) as the same run through the collecting entry point, whose rows
equal ``execute()``'s.  Then the generated code: the drained text is a
program of its own in the code cache, never confused with the collecting
one, and it builds no list.  Last, a deterministic memory guard: under
``tracemalloc`` a drained run's peak stays below ``execute()``'s by at
least the size of the result list.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import sys
import tracemalloc

import pytest

import repro
from repro.core import MemorySink
from repro.core import runner as runner_module
from repro.engine import compiled
from repro.engine.executor import ENGINES, execute, run_root
from repro.engine.expressions import col
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators.base import ExecutionContext
from repro.engine.operators.nested_loops import NestedLoopsJoin
from repro.engine.operators.scan import TableScan
from repro.engine.plan import Plan
from repro.storage import columnar as colstore
from repro.workloads.adversarial import make_example2, make_zipfian_join
from repro.workloads.tpch.queries import build_query

CADENCES = (1, 2, 1000)
#: event fields that read the wall clock
TIMING = ("elapsed_seconds", "ticks_per_second", "eta_seconds",
          "eta_interval_seconds")
LABEL_ID = re.compile(r"#\d+")


@pytest.fixture(scope="module")
def zipf():
    return make_zipfian_join(n=300, z=2.0, order="skew_last", seed=7)


@pytest.fixture(scope="module")
def example2():
    return make_example2(n=200, matches=20)


@pytest.fixture(scope="module")
def nl():
    return make_zipfian_join(n=40, z=1.5, order="random", seed=3)


def _nl_plan(workload):
    join = NestedLoopsJoin(
        TableScan(workload.r1), TableScan(workload.r2),
        col("r1.a") == col("r2.b"),
    )
    return Plan(join, "zipf-nl")


#: name -> (fixture, plan builder over the fixture's workload)
ADVERSARIAL = {
    "zipf-inl": ("zipf", lambda w: w.inl_plan()),
    "zipf-inl-filtered": ("zipf", lambda w: w.inl_plan(skip_top_ranks=3)),
    "zipf-hash": ("zipf", lambda w: w.hash_plan()),
    "zipf-merge": ("zipf", lambda w: w.merge_plan()),
    "example2-inl": ("example2", lambda w: w.inl_plan()),
    "zipf-nl": ("nl", _nl_plan),
}


def _cadence_monitor(monkeypatch, every, firings):
    """Every run's monitor also carries an observer at ``every`` that
    records the instant and the per-operator counts it sees."""

    class Monitor(ExecutionMonitor):
        def __init__(self) -> None:
            super().__init__()
            self.add_observer(
                lambda m: firings.append(
                    # counts are registered at open, in pre-order
                    (m.total_ticks, tuple(m.counts().values()))
                ),
                every=every,
            )

    monkeypatch.setattr(runner_module, "ExecutionMonitor", Monitor)


def _collecting(monkeypatch, kept):
    """Route the runner through the collecting entry point, keeping the
    rows it returns in ``kept``."""

    def collect(root, context, engine, keep_rows=False, prepared=None):
        # the kept program is the drained text: collect through a fresh one
        rows = run_root(root, context, engine, keep_rows=True)
        kept.append(rows)
        return None

    monkeypatch.setattr(runner_module, "run_root", collect)


def _story(monkeypatch, session, plan, engine, every):
    """One ``Session.run``: everything but the wall clock."""
    firings = []
    _cadence_monitor(monkeypatch, every, firings)
    sink = MemorySink()
    report = session.run(plan, engine=engine, sinks=[sink])
    events = []
    for event in sink.events:
        record = event.to_dict()
        for field in TIMING:
            record.pop(field)
        # operator labels embed a process-wide id that differs per build
        events.append(LABEL_ID.sub("#", json.dumps(record, sort_keys=True)))
    return {
        "total": report.total,
        "per_op": [
            (op.name, op.rows_produced) for op in plan.root.walk()
        ],
        "samples": [dataclasses.astuple(s) for s in report.trace.samples],
        "events": events,
        "firings": firings,
    }


def _assert_drain_is_invisible(monkeypatch, catalog, build, engine, every):
    session = repro.connect(catalog=catalog)
    with monkeypatch.context() as patch:
        drained = _story(patch, session, build(), engine, every)
        kept = []
        _collecting(patch, kept)
        collected = _story(patch, session, build(), engine, every)
    assert drained == collected
    assert drained["firings"] or drained["total"] < every
    # the collecting side is the real thing: execute()'s rows, in order
    assert kept == [execute(build(), engine=engine).rows]


@pytest.mark.parametrize("every", CADENCES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("number", range(1, 23))
def test_tpch_drained_run_equals_collecting_run(
    monkeypatch, tpch_db, number, engine, every
):
    _assert_drain_is_invisible(
        monkeypatch, tpch_db.catalog, lambda: build_query(tpch_db, number),
        engine, every,
    )


@pytest.mark.parametrize("every", CADENCES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_drained_run_equals_collecting_run(
    request, monkeypatch, name, engine, every
):
    fixture, builder = ADVERSARIAL[name]
    workload = request.getfixturevalue(fixture)
    _assert_drain_is_invisible(
        monkeypatch, workload.catalog, lambda: builder(workload),
        engine, every,
    )


# -- the generated code ---------------------------------------------------------------


def _texts(plan, keep_rows):
    """Every function text the fused engine generates for ``plan``."""
    context = ExecutionContext()
    plan.root.open(context)
    compiler = compiled._Compiler()
    try:
        compiler.program(plan.root, keep_rows)
    finally:
        plan.root.close()
    return compiler.sources


def _all_plans(tpch_db, zipf, example2, nl):
    plans = [build_query(tpch_db, number) for number in range(1, 23)]
    workloads = {"zipf": zipf, "example2": example2, "nl": nl}
    for fixture, builder in ADVERSARIAL.values():
        plans.append(builder(workloads[fixture]))
    return plans


def test_the_drained_program_builds_no_list(tpch_db, zipf, example2, nl):
    for plan in _all_plans(tpch_db, zipf, example2, nl):
        drained = _texts(plan, keep_rows=False)
        collecting = _texts(plan, keep_rows=True)
        # the plan's own function is generated last; pulled subtrees
        # (generators) are the same text either way
        assert "push(" in collecting[-1] and "out = []" in collecting[-1]
        assert all("push(" not in text for text in drained)
        assert all("out = []" not in text for text in drained)
        assert drained[:-1] == collecting[:-1]
        assert drained[-1] != collecting[-1]


@pytest.mark.parametrize("engine", ("fused", "columnar"))
def test_execute_after_a_drained_run_still_returns_every_row(tpch_db, engine):
    session = repro.connect(catalog=tpch_db.catalog, engine=engine)
    for number in (3, 10, 18):
        expected = execute(build_query(tpch_db, number),
                           engine="interpreted").rows
        assert expected
        session.run(build_query(tpch_db, number))
        assert session.execute(build_query(tpch_db, number)).rows == expected
        session.run(build_query(tpch_db, number))
        assert session.execute(build_query(tpch_db, number)).rows == expected


@pytest.mark.parametrize("engine", ("fused", "columnar"))
def test_a_warm_second_run_adds_no_code(tpch_db, zipf, engine):
    for catalog, plan in (
        (tpch_db.catalog, lambda: build_query(tpch_db, 21)),
        (zipf.catalog, zipf.merge_plan),
    ):
        session = repro.connect(catalog=catalog, engine=engine)
        session.run(plan())
        cached = set(compiled._CODE)
        session.run(plan())
        assert set(compiled._CODE) == cached


def test_a_drained_run_returns_no_rows_and_every_tick(zipf):
    for engine in ENGINES:
        plan = zipf.hash_plan()
        context = ExecutionContext()
        assert run_root(plan.root, context, engine, keep_rows=False) is None
        assert context.monitor.total_ticks == execute(
            zipf.hash_plan(), engine=engine
        ).total_getnext


# -- memory ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_zipf():
    # every R2 row joins exactly one R1 row: n result rows
    return make_zipfian_join(n=20000, z=2.0, order="skew_last", seed=7)


def _traced_peak(work):
    gc.collect()
    tracemalloc.start()
    try:
        result = work()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("engine", (
    "fused",
    pytest.param("columnar", marks=pytest.mark.skipif(
        not colstore.HAVE_NUMPY,
        # measured at n = 20 000: a drained run on the list kernels peaks
        # at about 6 MB, set by the replay layout, as high as a collecting
        # execute's peak, so the drain saves no peak there
        reason="without NumPy the replay layout, not the rows, sets the peak",
    )),
))
def test_a_drained_run_peaks_below_execute_by_the_result_list(
    big_zipf, engine
):
    session = repro.connect(catalog=big_zipf.catalog, engine=engine)
    # warm: the code cache, column views and lazy imports are not the run's
    session.run(big_zipf.hash_plan())
    execute(big_zipf.hash_plan(), engine=engine)

    run_peak, _ = _traced_peak(lambda: session.run(big_zipf.hash_plan()))
    execute_peak, result = _traced_peak(
        lambda: execute(big_zipf.hash_plan(), engine=engine)
    )
    assert result.row_count >= 20000
    assert execute_peak - run_peak >= sys.getsizeof(result.rows)


def test_the_list_kernels_replay_layout_stays_near_the_fused_peak(monkeypatch):
    # Without NumPy the columnar engine's per-tick replay layout is plain
    # integers; held as machine words it must not dwarf what the same
    # drained run costs on the fused engine.  Fresh tables: no column view
    # cached as a NumPy array by an earlier test.
    monkeypatch.setattr(colstore, "HAVE_NUMPY", False)
    workload = make_zipfian_join(n=20000, z=2.0, order="skew_last", seed=7)
    peaks = {}
    for engine in ("fused", "columnar"):
        session = repro.connect(catalog=workload.catalog, engine=engine)
        session.run(workload.hash_plan())  # warm
        peaks[engine], _ = _traced_peak(
            lambda: session.run(workload.hash_plan())
        )
    assert peaks["columnar"] <= 3.5 * peaks["fused"], peaks
