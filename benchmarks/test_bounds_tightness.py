"""Bound tightness: the ``degree_seq`` overlay vs. the paper2005 baseline.

Safe's worst-case ratio error is exactly ``√(UB/LB)`` (Theorem 6), so a
provider that shrinks the bound interval shrinks the *guarantee*, not just
an estimate.  This benchmark runs the adversarial zipfian joins — with the
``linear=False`` plan variants, where the paper's general join rule decays
to the ``|R|·|S|`` product — once per provider stack, samples both
trackers' bounds at the same instants of the same execution, and measures:

* the per-case geometric-mean ``√(UB/LB)`` over all sampled instants,
  per stack, and its reduction factor (stacked vs. baseline);
* the realized pmax/safe max/avg ratio errors (at the paper's 0.01 truth
  cutoff) under each stack.

Enforced gates:

* **never looser**: at every sampled instant of every case — skewed or
  not — the stacked tracker's UB ≤ baseline UB and LB ≥ baseline LB;
* **tightens where it matters**: geomean over the skewed
  (``linear=False``) cases of the ``√(UB/LB)`` reduction factor ≥ 1.3×.

Results land in ``benchmarks/results/BENCH_bounds_tightness.json``.
"""

import json
import math

from repro.bench.harness import save_artifact
from repro.core import (
    BoundsTracker,
    PmaxEstimator,
    SafeEstimator,
    run_with_estimators,
)
from repro.engine.executor import execute
from repro.engine.monitor import ExecutionMonitor
from repro.engine.operators import ExecutionContext
from repro.workloads.adversarial import ORDERS, make_zipfian_join

BASE_N = 4000
MIN_N = 500
ZIPF_Z = 2.0
MIN_ACTUAL = 0.01
SAMPLE_EVERY = 97
BASELINE = ("paper2005",)
STACKED = ("paper2005", "degree_seq")
#: the tightening gate on the skewed (linear=False) cases
MIN_GEOMEAN_SHRINK = 1.3
#: float-noise tolerance on the never-looser gate
EPS = 1e-9


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sweep_cases(n):
    """(name, workload, plan factory, skewed?) for the full grid."""
    cases = []
    for order in ORDERS:
        workload = make_zipfian_join(n=n, z=ZIPF_Z, order=order, seed=7)
        for shape, plan_of in (
            ("hash", workload.hash_plan),
            ("merge", workload.merge_plan),
            ("inl", workload.inl_plan),
        ):
            # linear=False: the adversarial product-rule setting degree_seq
            # exists for; linear=True: the control where the paper bound is
            # already tight and the overlay must simply do no harm.
            cases.append((
                "%s-%s-nonlinear" % (shape, order), workload,
                lambda plan_of=plan_of: plan_of(linear=False), True,
            ))
            cases.append((
                "%s-%s-linear" % (shape, order), workload,
                lambda plan_of=plan_of: plan_of(linear=True), False,
            ))
    return cases


def measure_bounds(plan, catalog):
    """One execution, both stacks sampled at identical instants."""
    base = BoundsTracker(plan, catalog, bounds=BASELINE)
    stacked = BoundsTracker(plan, catalog, bounds=STACKED)
    monitor = ExecutionMonitor()
    base.attach(monitor)
    stacked.attach(monitor)
    rows = []
    looser = [0]

    def observe(m):
        b, s = base.snapshot(), stacked.snapshot()
        if s.upper > b.upper * (1 + EPS) or s.lower < b.lower - EPS:
            looser[0] += 1
        rows.append((b.lower, b.upper, s.lower, s.upper))

    monitor.add_observer(observe, every=SAMPLE_EVERY)
    execute(plan, ExecutionContext(monitor))
    observe(monitor)
    base.detach()
    stacked.detach()
    return rows, looser[0]


def measure_errors(plan, catalog, bounds):
    report = run_with_estimators(
        plan, [PmaxEstimator(), SafeEstimator()], catalog, bounds=bounds
    )
    return {
        name: {
            "max_ratio": report.trace.max_ratio_error(name, MIN_ACTUAL),
            "avg_ratio": report.trace.avg_ratio_error(name, MIN_ACTUAL),
        }
        for name in ("pmax", "safe")
    }


def run_case(name, workload, plan_of, skewed):
    rows, looser = measure_bounds(plan_of(), workload.catalog)
    base_sqrt = geomean([math.sqrt(bu / bl) for bl, bu, _, _ in rows if bl > 0])
    stacked_sqrt = geomean(
        [math.sqrt(su / sl) for _, _, sl, su in rows if sl > 0]
    )
    shrink = base_sqrt / stacked_sqrt if stacked_sqrt > 0 else 1.0
    return {
        "case": name,
        "skewed": skewed,
        "order": workload.order,
        "samples": len(rows),
        "looser_instants": looser,
        "geomean_sqrt_ratio": {
            "paper2005": base_sqrt,
            "stacked": stacked_sqrt,
            "shrink_factor": shrink,
        },
        "ratio_errors": {
            "paper2005": measure_errors(
                plan_of(), workload.catalog, BASELINE
            ),
            "stacked": measure_errors(plan_of(), workload.catalog, STACKED),
        },
    }


def test_bounds_tightness(scale_factor):
    n = max(MIN_N, int(BASE_N * scale_factor))
    results = [
        run_case(name, workload, plan_of, skewed)
        for name, workload, plan_of, skewed in sweep_cases(n)
    ]

    looser_cases = [r["case"] for r in results if r["looser_instants"]]
    skewed_shrinks = [
        r["geomean_sqrt_ratio"]["shrink_factor"]
        for r in results
        if r["skewed"]
    ]
    skewed_geomean_shrink = geomean(skewed_shrinks)

    artifact = {
        "benchmark": "bounds_tightness",
        "workload": {
            "n": n,
            "z": ZIPF_Z,
            "orders": list(ORDERS),
            "scale_factor": scale_factor,
            "min_actual": MIN_ACTUAL,
        },
        "stacks": {"baseline": list(BASELINE), "stacked": list(STACKED)},
        "gates": {
            "never_looser": not looser_cases,
            "skewed_geomean_shrink": skewed_geomean_shrink,
            "skewed_geomean_shrink_floor": MIN_GEOMEAN_SHRINK,
        },
        "cases": results,
    }
    save_artifact(
        "BENCH_bounds_tightness.json", json.dumps(artifact, indent=2)
    )

    assert not looser_cases, (
        "degree_seq loosened the bounds on: %s" % looser_cases
    )
    assert skewed_geomean_shrink >= MIN_GEOMEAN_SHRINK, (
        "geomean √(UB/LB) shrink on skewed cases is %.3f× "
        "(gate: ≥ %.1f×)" % (skewed_geomean_shrink, MIN_GEOMEAN_SHRINK)
    )
