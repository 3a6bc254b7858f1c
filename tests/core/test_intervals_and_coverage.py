"""Interval guarantees on real runs, plus coverage for thinner paths."""

import pytest

from repro.core import (
    DneEstimator,
    PmaxEstimator,
    SafeEstimator,
    TrivialEstimator,
    run_with_estimators,
    standard_toolkit,
)
from repro.core.bounds import BoundsSnapshot
from repro.core.estimators.base import Observation
from repro.workloads import make_zipfian_join


def observation_from_sample(sample):
    return Observation(
        curr=sample.curr,
        bounds=BoundsSnapshot(sample.curr, sample.lower_bound,
                              sample.upper_bound, {}),
        pipelines=[],
    )


class TestIntervalGuarantees:
    """Estimator interval() answers must bracket the true progress."""

    @pytest.fixture(scope="class")
    def report(self):
        workload = make_zipfian_join(n=2500, order="skew_last")
        return run_with_estimators(
            workload.inl_plan(), standard_toolkit(), workload.catalog
        )

    def test_safe_interval_brackets_truth(self, report):
        estimator = SafeEstimator()
        for sample in report.trace.samples:
            low, high = estimator.interval(observation_from_sample(sample))
            assert low - 1e-9 <= sample.actual <= high + 1e-9

    def test_pmax_interval_brackets_truth(self, report):
        estimator = PmaxEstimator()
        for sample in report.trace.samples:
            low, high = estimator.interval(observation_from_sample(sample))
            assert low - 1e-9 <= sample.actual <= high + 1e-9

    def test_trivial_interval_always_brackets(self, report):
        estimator = TrivialEstimator()
        for sample in report.trace.samples:
            low, high = estimator.interval(observation_from_sample(sample))
            assert low <= sample.actual <= high

    def test_safe_estimate_inside_its_interval(self, report):
        estimator = SafeEstimator()
        for sample in report.trace.samples:
            obs = observation_from_sample(sample)
            low, high = estimator.interval(obs)
            assert low - 1e-9 <= estimator.estimate(obs) <= high + 1e-9


class TestMergeJoinDne:
    """Multi-driver pipelines: dne sums both inputs' fractions."""

    def test_merge_join_progress_tracked(self):
        workload = make_zipfian_join(n=1500, order="skew_last")
        plan = workload.merge_plan()
        report = run_with_estimators(plan, [DneEstimator()], workload.catalog)
        # multi-pipeline plan with a multi-driver tail: still sane & monotone
        estimates = [s.estimates["dne"] for s in report.trace.samples]
        assert all(0.0 <= value <= 1.0 for value in estimates)
        assert estimates[-1] == 1.0
        # roughly tracks the truth (both inputs stream at similar rates)
        mid_errors = [
            abs(s.estimates["dne"] - s.actual)
            for s in report.trace.samples if 0.2 < s.actual < 0.8
        ]
        assert max(mid_errors) < 0.35


class TestPaperVarianceClaim:
    def test_q1_per_tuple_variance_tiny(self, tpch_db):
        """The paper measures var = 0.01 for Q1's driver — ours likewise."""
        from repro.core import driver_work_profile
        from repro.engine.operators import TableScan
        from repro.workloads import build_query

        plan = build_query(tpch_db, 1)
        driver = plan.find(TableScan)[0]
        profile = driver_work_profile(plan, driver)
        assert profile.mean == pytest.approx(2.0, abs=0.1)
        assert profile.variance < 0.1

    def test_zipfian_variance_huge(self):
        """...whereas the adversarial join's per-tuple variance explodes."""
        from repro.core import driver_work_profile
        from repro.engine.operators import TableScan

        workload = make_zipfian_join(n=1000, order="skew_last")
        plan = workload.inl_plan()
        driver = plan.find(TableScan)[0]
        profile = driver_work_profile(plan, driver)
        assert profile.mean == pytest.approx(2.0, abs=0.01)
        assert profile.variance > 100


class TestRunnerWithRandomOrderScan:
    def test_reshuffling_scan_total_is_order_invariant(self):
        """The oracle pass and the trace pass see different permutations,
        but total(Q) is order-independent, so the trace stays consistent."""
        from repro.core import run_with_estimators
        from repro.engine.expressions import col
        from repro.engine.operators import IndexNestedLoopsJoin, RandomOrderScan
        from repro.engine.plan import Plan

        workload = make_zipfian_join(n=1200, order="skew_last")
        index = workload.catalog.hash_index("r2", "b")
        plan = Plan(IndexNestedLoopsJoin(
            RandomOrderScan(workload.r1, seed=2, reshuffle=True),
            index, col("r1.a"), linear=True,
        ))
        report = run_with_estimators(plan, standard_toolkit(), workload.catalog)
        assert report.trace.samples[-1].actual == 1.0
        for sample in report.trace.samples:
            assert sample.lower_bound - 1e-9 <= report.total <= sample.upper_bound + 1e-9
