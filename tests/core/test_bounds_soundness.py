"""Soundness differential suite for the bound-provider stack.

The §5.1 invariant ``Curr ≤ LB ≤ total(Q) ≤ UB`` must hold at every
sampled instant for **every** provider combination, on every engine — an
unsound overlay cap would silently poison pmax and safe everywhere.  This suite runs the full matrix over TPC-H and
the adversarial zipfian joins (including the ``linear=False`` variants
where ``degree_seq`` actually bites), and re-checks incremental-vs-
reference tracker bit-identity with overlays active.
"""

import pytest

from repro.core import BoundsTracker, ReferenceBoundsTracker, SafeEstimator
from repro.core.observe import MemorySink
from repro.core.runner import run_with_estimators
from repro.engine.executor import execute
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import ExecutionContext
from repro.options import ENGINES
from repro.workloads import build_query, generate_tpch
from repro.workloads.adversarial import make_zipfian_join

from tests.core.test_incremental_bounds import assert_snapshots_identical

STACKS = (("paper2005",), ("paper2005", "degree_seq"))
EPS = 1e-9


@pytest.fixture(scope="module")
def zipf():
    return make_zipfian_join(n=800, z=2.0, order="skew_first", seed=11)


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(scale=0.0005, seed=7)


def adversarial_plans(zipf):
    return [
        zipf.hash_plan(linear=False),
        zipf.merge_plan(linear=False),
        zipf.inl_plan(linear=False),
        zipf.hash_plan(),  # the declared-linear originals stay covered too
        zipf.inl_plan(skip_top_ranks=3),
    ]


def assert_sound_run(plan, catalog, engine, bounds):
    sink = MemorySink()
    report = run_with_estimators(
        plan,
        [SafeEstimator()],
        catalog,
        sinks=[sink],
        engine=engine,
        bounds=bounds,
    )
    total = report.total
    samples = sink.samples()
    assert samples, "run produced no samples"
    for event in samples:
        assert event.curr <= event.lower_bound + EPS
        assert event.lower_bound <= total + EPS
        assert total <= event.upper_bound + EPS
    return report


class TestSoundnessMatrix:
    @pytest.mark.parametrize("bounds", STACKS, ids=lambda s: "+".join(s))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_adversarial_plans(self, zipf, engine, bounds):
        for plan_factory in (
            lambda: zipf.hash_plan(linear=False),
            lambda: zipf.merge_plan(linear=False),
            lambda: zipf.inl_plan(linear=False),
        ):
            assert_sound_run(plan_factory(), zipf.catalog, engine, bounds)

    @pytest.mark.parametrize("bounds", STACKS, ids=lambda s: "+".join(s))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_tpch_plans(self, tpch, engine, bounds):
        # Representative query shapes: aggregation pipeline (1), three-way
        # join (3), multi-join (5), group-by join (10), nested-loops-heavy
        # (17).
        for number in (1, 3, 5, 10, 17):
            assert_sound_run(
                build_query(tpch, number), tpch.catalog, engine, bounds
            )


def run_comparing_with_bounds(plan, catalog, bounds, engine, every=17):
    """Incremental vs. reference bit-identity with overlays active."""
    incremental = BoundsTracker(plan, catalog, bounds=bounds)
    reference = ReferenceBoundsTracker(plan, catalog, bounds=bounds)
    monitor = ExecutionMonitor()
    incremental.attach(monitor)
    compared = [0]

    def check(m):
        assert_snapshots_identical(incremental.snapshot(), reference.snapshot())
        assert incremental.last_refinements == reference.last_refinements
        compared[0] += 1

    monitor.add_observer(check, every=every)
    execute(plan, ExecutionContext(monitor), engine=engine)
    assert_snapshots_identical(incremental.snapshot(), reference.snapshot())
    incremental.detach()
    assert compared[0] > 0


class TestIncrementalIdentityWithOverlays:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_adversarial_plans(self, zipf, engine):
        for plan in adversarial_plans(zipf):
            run_comparing_with_bounds(
                plan, zipf.catalog, ("paper2005", "degree_seq"), engine
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tpch_plans(self, tpch, engine):
        for number in (3, 10, 17):
            run_comparing_with_bounds(
                build_query(tpch, number),
                tpch.catalog,
                ("paper2005", "degree_seq"),
                engine,
            )
