"""One function per paper artifact (figures 3-7, tables 1-3) plus ablations.

Each function builds its workload, runs the instrumented execution, and
returns plain data structures.  :data:`ARTIFACTS`, at the end, is the one
registry of the sixteen artifacts: for each, the one argument set it runs at
and the renderer that turns its data into the text it is saved as.  The
benchmark suite, ``repro experiments`` and the tier-1 claims all read it, so
an artifact's text is the same wherever it is produced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.bench.harness import render_series, render_table
from repro.core.estimators import (
    DneEstimator,
    HybridMuEstimator,
    HybridVarianceEstimator,
    PmaxEstimator,
    SafeEstimator,
    standard_toolkit,
)
from repro.core.metrics import ProgressTrace, ratio_error
from repro.core.model import DriverWorkProfile, mu as compute_mu, total_work
from repro.core.runner import ProgressReport, run_with_estimators
from repro.engine.expressions import col, lit
from repro.engine.operators.aggregate import HashAggregate, agg_sum, count_star
from repro.engine.operators.filter import Filter
from repro.engine.operators.hash_join import HashJoin
from repro.engine.operators.scan import TableScan
from repro.engine.plan import Plan
from repro.storage.catalog import Catalog
from repro.storage.schema import schema_of
from repro.storage.table import Table
from repro.workloads.adversarial import make_twin_instances, make_zipfian_join
from repro.workloads.skyserver import SKYSERVER_QUERIES, generate_skyserver
from repro.workloads.tpch import build_query, generate_tpch

# ---------------------------------------------------------------------------
# Figure 3 — dne on TPC-H Query 1 (near-diagonal because var is tiny)
# ---------------------------------------------------------------------------


def figure3(scale: float, skew: float = 2.0, seed: int = 42) -> Dict:
    db = generate_tpch(scale=scale, skew=skew, seed=seed)
    plan = build_query(db, 1)
    report = run_with_estimators(plan, [DneEstimator()], db.catalog)
    return {
        "report": report,
        "series": {"dne": report.trace.series("dne")},
        "mu": report.mu,
        "max_abs_error": report.trace.max_abs_error("dne"),
        "avg_abs_error": report.trace.avg_abs_error("dne"),
    }


# ---------------------------------------------------------------------------
# Figure 4 — pmax vs dne, zipfian ⋈INL, high-skew tuples first
# ---------------------------------------------------------------------------


def figure4(n: int, z: float = 2.0) -> Dict:
    workload = make_zipfian_join(n=n, z=z, order="skew_first")
    plan = workload.inl_plan()
    report = run_with_estimators(
        plan, [DneEstimator(), PmaxEstimator()], workload.catalog
    )
    trace = report.trace
    return {
        "report": report,
        "series": {"dne": trace.series("dne"), "pmax": trace.series("pmax")},
        "dne_max_abs_error": trace.max_abs_error("dne"),
        "pmax_max_abs_error": trace.max_abs_error("pmax"),
        "mu": report.mu,
    }


# ---------------------------------------------------------------------------
# Figure 5 — safe vs dne, worst-case (high-skew tuples last)
# ---------------------------------------------------------------------------


def figure5(n: int, z: float = 2.0) -> Dict:
    workload = make_zipfian_join(n=n, z=z, order="skew_last")
    plan = workload.inl_plan()
    report = run_with_estimators(
        plan, [DneEstimator(), SafeEstimator()], workload.catalog
    )
    trace = report.trace
    return {
        "report": report,
        "series": {"dne": trace.series("dne"), "safe": trace.series("safe")},
        "dne_max_abs_error": trace.max_abs_error("dne"),
        "safe_max_abs_error": trace.max_abs_error("safe"),
    }


# ---------------------------------------------------------------------------
# Table 1 — Max/Avg error of dne/pmax/safe under ⋈INL vs ⋈hash
# ---------------------------------------------------------------------------


@dataclass
class Table1Row:
    estimator: str
    max_err_inl: float
    max_err_hash: float
    avg_err_inl: float
    avg_err_hash: float


def table1(n: int, z: float = 2.0) -> List[Table1Row]:
    workload = make_zipfian_join(n=n, z=z, order="skew_last")
    reports = {
        "inl": run_with_estimators(
            workload.inl_plan(), standard_toolkit(), workload.catalog
        ),
        "hash": run_with_estimators(
            workload.hash_plan(), standard_toolkit(), workload.catalog
        ),
    }
    rows = []
    for name in ("dne", "pmax", "safe"):
        rows.append(
            Table1Row(
                estimator=name,
                max_err_inl=reports["inl"].trace.max_abs_error(name),
                max_err_hash=reports["hash"].trace.max_abs_error(name),
                avg_err_inl=reports["inl"].trace.avg_abs_error(name),
                avg_err_hash=reports["hash"].trace.avg_abs_error(name),
            )
        )
    return rows


def _render_table1(rows: List[Table1Row]) -> str:
    return render_table(
        ["estimator", "max err (INL)", "max err (hash)",
         "avg err (INL)", "avg err (hash)"],
        [
            [row.estimator,
             "%.2f%%" % (row.max_err_inl * 100),
             "%.2f%%" % (row.max_err_hash * 100),
             "%.2f%%" % (row.avg_err_inl * 100),
             "%.2f%%" % (row.avg_err_hash * 100)]
            for row in rows
        ],
        title="Table 1: impact of scan-based plan (worst-case order, z=2)",
    )


# ---------------------------------------------------------------------------
# Table 2 — μ values for TPC-H Q1..Q21 (skewed data, z=2)
# ---------------------------------------------------------------------------


#: The paper's Table 2 (real skewed TPC-H, z=2).
PAPER_TABLE2 = {
    1: 1.989, 2: 1.213, 3: 1.886, 4: 1.003, 5: 1.007, 6: 1.008, 7: 1.538,
    8: 1.432, 9: 1.021, 10: 1.004, 11: 1.014, 12: 1.001, 13: 2.019,
    14: 1.001, 15: 1.149, 16: 1.157, 17: 1.020, 18: 2.771, 19: 1.025,
    20: 1.159, 21: 2.782,
}


def table2(scale: float, skew: float = 2.0, seed: int = 42) -> Dict[int, float]:
    db = generate_tpch(scale=scale, skew=skew, seed=seed)
    return {
        number: compute_mu(build_query(db, number)) for number in PAPER_TABLE2
    }


# ---------------------------------------------------------------------------
# Table 3 — μ values for the long-running SkyServer queries
# ---------------------------------------------------------------------------


#: The paper's Table 3 (real SDSS data).
PAPER_TABLE3 = {3: 1.008, 6: 1.428, 14: 1.078, 18: 1.79, 22: 1.246,
                28: 1.044, 32: 1.253}


def table3(scale: int, seed: int = 11) -> Dict[int, float]:
    db = generate_skyserver(scale=scale, seed=seed)
    return {
        number: compute_mu(builder(db))
        for number, builder in sorted(SKYSERVER_QUERIES.items())
    }


# ---------------------------------------------------------------------------
# Figure 6 — ratio error of pmax over the execution of TPC-H Q21
# ---------------------------------------------------------------------------


def figure6(scale: float, skew: float = 2.0, seed: int = 42) -> Dict:
    db = generate_tpch(scale=scale, skew=skew, seed=seed)
    plan = build_query(db, 21)
    report = run_with_estimators(plan, [PmaxEstimator()], db.catalog)
    series = report.trace.ratio_error_series("pmax")
    return {
        "report": report,
        "series": {"pmax ratio error": series},
        "mu": report.mu,
        "error_after_30pct": report.trace.ratio_error_after("pmax", 0.3),
        "error_after_70pct": report.trace.ratio_error_after("pmax", 0.7),
    }


# ---------------------------------------------------------------------------
# Figure 7 — safe vs dne in a dne-favorable case (skew filtered out)
# ---------------------------------------------------------------------------


def figure7(n: int, z: float = 2.0, skip_top_ranks: int = 25) -> Dict:
    workload = make_zipfian_join(n=n, z=z, order="skew_last")
    plan = workload.inl_plan(skip_top_ranks=skip_top_ranks)
    report = run_with_estimators(
        plan, [DneEstimator(), SafeEstimator()], workload.catalog
    )
    trace = report.trace
    return {
        "report": report,
        "series": {"dne": trace.series("dne"), "safe": trace.series("safe")},
        "dne_max_abs_error": trace.max_abs_error("dne"),
        "safe_max_abs_error": trace.max_abs_error("safe"),
        "safe_final_error": abs(
            trace.samples[-1].estimates["safe"] - trace.samples[-1].actual
        ),
    }


# ---------------------------------------------------------------------------
# Ablation A1 — the Theorem 1 lower bound, live
# ---------------------------------------------------------------------------


def ablation_lower_bound(n: int) -> Dict:
    """Run both twin instances; compare estimates at the decision instant.

    At the tick just before the offending tuple is read, the two executions
    are byte-identical to any estimator, yet the true progress is ~0.9 on
    instance X and ~0.1 on instance Y.  Whatever an estimator answers, it
    pays at least a factor √(total_y/total_x) on one of them — and safe
    pays exactly that, which is the optimality claim of Theorem 6.
    """
    twins = make_twin_instances(n=n)
    toolkit = lambda: standard_toolkit()  # noqa: E731 - fresh instances per run
    report_x = run_with_estimators(twins.plan_x(), toolkit(), twins.catalog_x)
    report_y = run_with_estimators(twins.plan_y(), toolkit(), twins.catalog_y)

    # The adaptive cadence retains different instants for different totals:
    # compare at the last instant before the offending tuple that *both*
    # traces sampled, where the prefixes are still identical.
    decision = max(
        {s.curr for s in report_x.trace.samples}
        & {s.curr for s in report_y.trace.samples if s.curr <= twins.position}
    )

    def at_decision(report: ProgressReport) -> Dict[str, float]:
        sample = next(s for s in report.trace.samples if s.curr == decision)
        return dict(sample.estimates, actual=sample.curr / report.total)

    x = at_decision(report_x)
    y = at_decision(report_y)
    forced = {
        name: max(ratio_error(x[name], x["actual"]), ratio_error(y[name], y["actual"]))
        for name in ("dne", "pmax", "safe")
    }
    return {
        "totals": (report_x.total, report_y.total),
        "at_decision_x": x,
        "at_decision_y": y,
        "forced_ratio_error": forced,
        "optimal_bound": (report_y.total / report_x.total) ** 0.5,
    }


def _render_lower_bound(result: Dict) -> str:
    x, y = result["at_decision_x"], result["at_decision_y"]
    forced = result["forced_ratio_error"]
    return render_table(
        ["estimator", "estimate on X", "estimate on Y", "forced ratio error"],
        [
            [name, "%.4f" % (x[name],), "%.4f" % (y[name],),
             "%.2f" % (forced[name],)]
            for name in ("dne", "pmax", "safe")
        ]
        + [["(actual)", "%.4f" % (x["actual"],), "%.4f" % (y["actual"],),
            "optimal=%.2f" % (result["optimal_bound"],)]],
        title="Ablation A1: Theorem 1 twins (totals %d vs %d)" % result["totals"],
    )


# ---------------------------------------------------------------------------
# Ablation A2 — Theorem 4: at least half of all orders are 2-predictive
# ---------------------------------------------------------------------------


def ablation_predictive_orders(
    trials: int, n: int, z: float = 1.5, seed: int = 3
) -> Dict:
    from repro.workloads.zipf import zipf_frequencies

    work = [1 + f for f in zipf_frequencies(4 * n, n, z)]
    rng = random.Random(seed)
    predictive = 0
    for _ in range(trials):
        order = list(work)
        rng.shuffle(order)
        if DriverWorkProfile(order).is_c_predictive(2.0):
            predictive += 1
    return {
        "trials": trials,
        "predictive": predictive,
        "fraction": predictive / trials,
    }


def _render_predictive_orders(result: Dict) -> str:
    return render_table(
        ["trials", "2-predictive", "fraction"],
        [[result["trials"], result["predictive"],
          "%.3f" % (result["fraction"],)]],
        title="Ablation A2: fraction of random orders that are 2-predictive "
              "(Theorem 4 bound: >= 0.5)",
    )


# ---------------------------------------------------------------------------
# Ablation A3 — Property 6: scan-based worst-case bounds
# ---------------------------------------------------------------------------


def _scan_based_chain(tables: int, rows_per_table: int, seed: int) -> Tuple[Plan, Catalog]:
    """A linear scan-based plan with ``tables-1`` FK hash joins + γ."""
    rng = random.Random(seed)
    catalog = Catalog()
    previous = None
    for t in range(tables):
        name = "t%d" % (t,)
        table = Table(
            name,
            schema_of(name, "k:int", "v:int"),
            [(i, rng.randrange(100)) for i in range(rows_per_table)],
        )
        catalog.add_table(table)
        scan = TableScan(table)
        if previous is None:
            previous = scan
        else:
            previous = HashJoin(
                scan, previous, col("%s.k" % (name,)),
                col("t%d.k" % (t - 1,)), linear=True,
            )
    aggregated = HashAggregate(
        previous, [], [count_star("n"), agg_sum(col("t0.v"), "s")]
    )
    return Plan(aggregated, "scan-chain-%d" % (tables,)), catalog


def ablation_scan_based(
    table_counts: Sequence[int], rows_per_table: int, seed: int = 5,
) -> List[Dict]:
    results = []
    for tables in table_counts:
        plan, catalog = _scan_based_chain(tables, rows_per_table, seed)
        assert plan.is_scan_based() and plan.is_linear()
        m = plan.internal_node_count()
        report = run_with_estimators(plan, standard_toolkit(), catalog)
        results.append(
            {
                "tables": tables,
                "m": m,
                "mu": report.mu,
                "mu_bound": m + 1,
                "safe_max_ratio_error": report.trace.max_ratio_error(
                    "safe", min_actual=0.01
                ),
                "safe_bound": (m + 1) ** 0.5,
                "pmax_max_ratio_error": report.trace.max_ratio_error(
                    "pmax", min_actual=0.01
                ),
            }
        )
    return results


def _render_scan_based(results: List[Dict]) -> str:
    return render_table(
        ["tables", "m", "mu", "mu bound", "safe max ratio", "safe bound",
         "pmax max ratio"],
        [[r["tables"], r["m"], "%.3f" % r["mu"], r["mu_bound"],
          "%.3f" % r["safe_max_ratio_error"], "%.3f" % r["safe_bound"],
          "%.3f" % r["pmax_max_ratio_error"]] for r in results],
        title="Ablation A3: Property 6 bounds on scan-based FK-join chains",
    )


# ---------------------------------------------------------------------------
# Ablation A4 — §6.4 hybrid estimators across the scenario grid
# ---------------------------------------------------------------------------


def ablation_hybrid(n: int, z: float = 2.0) -> Dict[str, Dict[str, float]]:
    """Max abs error of every estimator on each canonical scenario."""
    scenarios: Dict[str, Tuple] = {}
    for order in ("skew_first", "skew_last"):
        workload = make_zipfian_join(n=n, z=z, order=order)
        scenarios["inl-%s" % (order,)] = (workload.inl_plan(), workload.catalog)
        if order == "skew_last":
            scenarios["hash-%s" % (order,)] = (workload.hash_plan(), workload.catalog)
            scenarios["inl-good-case"] = (
                workload.inl_plan(skip_top_ranks=25), workload.catalog,
            )
    results: Dict[str, Dict[str, float]] = {}
    for name, (plan, catalog) in scenarios.items():
        estimators = [
            DneEstimator(), PmaxEstimator(), SafeEstimator(),
            HybridMuEstimator(), HybridVarianceEstimator(),
        ]
        report = run_with_estimators(plan, estimators, catalog)
        results[name] = {
            estimator.name: report.trace.max_abs_error(estimator.name)
            for estimator in estimators
        }
    return results


# ---------------------------------------------------------------------------
# Ablation A5 — the bytes-processed work model (§2.2's "results extend")
# ---------------------------------------------------------------------------


def ablation_bytes_model(n: int, z: float = 2.0) -> Dict[str, Dict[str, float]]:
    """Table-1-style errors under the GetNext and Bytes models side by side.

    The reproduced claim: the estimator ranking (safe best on max error in
    the worst case; everyone improves on the scan-based plan) is the same
    under either model of work.
    """
    from repro.core.runner import ProgressRunner
    from repro.core.workmodels import BytesModel, GetNextModel

    workload = make_zipfian_join(n=n, z=z, order="skew_last")
    results: Dict[str, Dict[str, float]] = {}
    for model in (GetNextModel(), BytesModel()):
        for plan_kind in ("inl", "hash"):
            plan = (workload.inl_plan() if plan_kind == "inl"
                    else workload.hash_plan())
            report = ProgressRunner(
                plan, standard_toolkit(), workload.catalog, work_model=model
            ).run()
            results["%s/%s" % (model.name, plan_kind)] = {
                name: report.trace.max_abs_error(name)
                for name in ("dne", "pmax", "safe")
            }
    return results


# ---------------------------------------------------------------------------
# Ablation A6 — inter-query feedback (§6.4's third heuristic direction)
# ---------------------------------------------------------------------------


def ablation_feedback(n: int, z: float = 2.0) -> Dict[str, Dict[str, float]]:
    """Repeat-run feedback vs the static tool-kit on the worst-case join.

    First run: no history (feedback degenerates to safe).  Second run of
    the *same* plan: the remembered total makes feedback near-exact, beating
    every static estimator on the adversarial order.  Third case: the
    Theorem 1 twins — history recorded on instance X, query re-run on the
    statistically identical instance Y whose total is 9x larger; feedback's
    history is exhausted early and it retreats to safe (the bound clamp
    keeps it sound throughout).
    """
    from repro.core.estimators import FeedbackEstimator, QueryHistory

    history = QueryHistory()
    workload = make_zipfian_join(n=n, z=z, order="skew_last")
    results: Dict[str, Dict[str, float]] = {}

    def run_once(label: str, plan, catalog) -> None:
        estimators = standard_toolkit() + [FeedbackEstimator(history)]
        report = run_with_estimators(plan, estimators, catalog)
        results[label] = {
            name: report.trace.max_abs_error(name)
            for name in ("dne", "pmax", "safe", "feedback")
        }
        history.record(plan, report.total)

    run_once("first-run", workload.inl_plan(), workload.catalog)
    run_once("repeat-run", workload.inl_plan(), workload.catalog)

    twins = make_twin_instances(n=max(1000, n // 2))
    twin_history = QueryHistory()
    twin_history.record(twins.plan_x(), int(max(1000, n // 2)))  # X's total
    estimators = standard_toolkit() + [FeedbackEstimator(twin_history)]
    report = run_with_estimators(twins.plan_y(), estimators, twins.catalog_y)
    results["data-changed-twins"] = {
        name: report.trace.max_abs_error(name)
        for name in ("dne", "pmax", "safe", "feedback")
    }
    return results


# ---------------------------------------------------------------------------
# Ablation A7 — sensitivity sweep: estimator error vs skew and scale
# ---------------------------------------------------------------------------


def ablation_skew_sweep(
    n: int, z_values: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5),
) -> List[Dict]:
    """Worst-case-order ⋈INL errors as the zipf parameter grows.

    The paper fixes z = 2; this sweep shows how the estimator tradeoff
    emerges: at z = 0 (uniform fan-out) everyone is near-exact, and as the
    skew concentrates the join work into a few tuples, dne's and pmax's
    worst-case error climbs toward the ~49% of Figure 5 while safe's grows
    far more slowly (its bound interval absorbs the skew).
    """
    results: List[Dict] = []
    for z in z_values:
        workload = make_zipfian_join(n=n, z=z, order="skew_last")
        report = run_with_estimators(
            workload.inl_plan(), standard_toolkit(), workload.catalog
        )
        results.append(
            {
                "z": z,
                "mu": report.mu,
                "dne": report.trace.max_abs_error("dne"),
                "pmax": report.trace.max_abs_error("pmax"),
                "safe": report.trace.max_abs_error("safe"),
            }
        )
    return results


def ablation_scale_sweep(sizes: Sequence[int], z: float = 2.0) -> List[Dict]:
    """Errors as the relation size grows (fixed z = 2, worst-case order).

    The reproduced claim is scale-freeness: the paper's experiments run at
    10^7 rows and ours at 10^3-10^4, so the whole reproduction hinges on the
    error *fractions* being size-invariant — which this sweep verifies.
    """
    results: List[Dict] = []
    for n in sizes:
        workload = make_zipfian_join(n=n, z=z, order="skew_last")
        report = run_with_estimators(
            workload.inl_plan(), standard_toolkit(), workload.catalog
        )
        results.append(
            {
                "n": n,
                "mu": report.mu,
                "dne": report.trace.max_abs_error("dne"),
                "pmax": report.trace.max_abs_error("pmax"),
                "safe": report.trace.max_abs_error("safe"),
            }
        )
    return results


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


def _series(title: str, *keys: str):
    """Renderer of a figure: its series, titled with ``result[key]``s."""

    def render(result: Dict) -> str:
        return render_series(
            result["series"], title=title % tuple(result[key] for key in keys)
        )

    return render


def _mu_table(paper: Dict[int, float], title: str):
    """Renderer of a ``{query: mu}`` result next to the paper's values."""

    def render(values: Dict[int, float]) -> str:
        return render_table(
            ["query", "mu (ours)", "mu (paper)"],
            [[q, "%.3f" % (values[q],), "%.3f" % (paper[q],)]
             for q in sorted(values)],
            title=title,
        )

    return render


def _error_grid(first: str, estimators: Sequence[str], title: str):
    """Renderer of a ``{row: {estimator: max abs error}}`` result."""

    def render(results: Dict[str, Dict[str, float]]) -> str:
        return render_table(
            [first] + list(estimators),
            [[key] + ["%.3f" % (errors[name],) for name in estimators]
             for key, errors in results.items()],
            title=title,
        )

    return render


def _sweep(first: str, title: str):
    """Renderer of a sweep: one row of max abs errors per ``first`` value."""

    def render(rows: List[Dict]) -> str:
        return render_table(
            [first, "mu", "dne max err", "pmax max err", "safe max err"],
            [[r[first], r["mu"], r["dne"], r["pmax"], r["safe"]] for r in rows],
            title=title,
        )

    return render


class Artifact(NamedTuple):
    """One paper artifact: its run at the one argument set, and its text."""

    run: Callable[[], Any]
    render: Callable[[Any], str]


#: Every paper artifact, keyed by the stem of the file it is saved as.
ARTIFACTS: Dict[str, Artifact] = {
    "figure3": Artifact(
        partial(figure3, scale=0.002),
        _series("Figure 3: dne on TPC-H Q1 (mu=%.3f, max err=%.4f, "
                "avg err=%.4f)", "mu", "max_abs_error", "avg_abs_error"),
    ),
    "figure4": Artifact(
        partial(figure4, n=10000),
        _series("Figure 4: pmax vs dne, skew first (dne max err=%.3f, "
                "pmax max err=%.3f, mu=%.2f)",
                "dne_max_abs_error", "pmax_max_abs_error", "mu"),
    ),
    "figure5": Artifact(
        partial(figure5, n=10000),
        _series("Figure 5: safe vs dne, worst-case order (dne max err=%.3f, "
                "safe max err=%.3f)",
                "dne_max_abs_error", "safe_max_abs_error"),
    ),
    "figure6": Artifact(
        partial(figure6, scale=0.002),
        _series("Figure 6: pmax ratio error over TPC-H Q21 (mu=%.3f; "
                "err@30%%=%.3f, err@70%%=%.3f)",
                "mu", "error_after_30pct", "error_after_70pct"),
    ),
    "figure7": Artifact(
        partial(figure7, n=10000),
        _series("Figure 7: safe vs dne, skew filtered out (dne max err=%.4f, "
                "safe max err=%.4f)",
                "dne_max_abs_error", "safe_max_abs_error"),
    ),
    "table1": Artifact(partial(table1, n=10000), _render_table1),
    "table2": Artifact(
        partial(table2, scale=0.002),
        _mu_table(PAPER_TABLE2, "Table 2: mu values for TPC-H (skew z=2)"),
    ),
    "table3": Artifact(
        partial(table3, scale=8000),
        _mu_table(PAPER_TABLE3,
                  "Table 3: mu values for the synthetic SkyServer workload"),
    ),
    "ablation_lower_bound": Artifact(
        partial(ablation_lower_bound, n=6000), _render_lower_bound,
    ),
    "ablation_predictive_orders": Artifact(
        partial(ablation_predictive_orders, trials=600, n=500),
        _render_predictive_orders,
    ),
    "ablation_scan_based": Artifact(
        partial(ablation_scan_based, table_counts=(2, 3, 4, 5),
                rows_per_table=2000),
        _render_scan_based,
    ),
    "ablation_hybrid": Artifact(
        partial(ablation_hybrid, n=8000),
        _error_grid(
            "scenario", ("dne", "pmax", "safe", "hybrid-mu", "hybrid-var"),
            "Ablation A4: max abs error per scenario (no clear winner)",
        ),
    ),
    "ablation_bytes_model": Artifact(
        partial(ablation_bytes_model, n=8000),
        _error_grid(
            "model/plan", ("dne", "pmax", "safe"),
            "Ablation A5: max abs error under GetNext vs Bytes work models",
        ),
    ),
    "ablation_feedback": Artifact(
        partial(ablation_feedback, n=8000),
        _error_grid(
            "phase", ("dne", "pmax", "safe", "feedback"),
            "Ablation A6: inter-query feedback across runs (max abs error)",
        ),
    ),
    "ablation_skew_sweep": Artifact(
        partial(ablation_skew_sweep, n=4000),
        _sweep("z", "Ablation A7a: worst-case error vs zipf skew (n fixed)"),
    ),
    "ablation_scale_sweep": Artifact(
        partial(ablation_scale_sweep, sizes=(1000, 2000, 4000, 8000)),
        _sweep("n", "Ablation A7b: worst-case error vs relation size (z=2)"),
    ),
}
