"""The paper's claims, one function per artifact of :data:`repro.bench.ARTIFACTS`.

Each claim runs at the registry's one argument set — the run the benchmark
suite times and saves — so a claim holds for exactly the text in
``benchmarks/results/<name>.txt``.  The same run also checks that
``repro experiments NAME`` prints that text byte for byte.
"""

import pytest

from repro.bench import ARTIFACTS
from repro.bench.experiments import PAPER_TABLE2, PAPER_TABLE3
from repro.cli import main

CLAIMS = {}


def claim(function):
    CLAIMS[function.__name__] = function
    return function


def _mid_run(series):
    """``estimate - actual`` over the samples with 20% < actual < 50%."""
    return [est - actual for actual, est in series if 0.2 < actual < 0.5]


@claim
def figure3(result):
    """dne on TPC-H Q1: μ ≈ 1.99, variance ≈ 0, so dne hugs the diagonal."""
    assert {"series", "mu", "max_abs_error", "avg_abs_error"} <= set(result)
    assert list(result["series"]) == ["dne"]
    assert result["mu"] == 2.0 or abs(result["mu"] - 1.99) < 0.1
    assert result["mu"] == pytest.approx(2.0, abs=0.1)
    assert result["max_abs_error"] < 0.03
    assert result["avg_abs_error"] < 0.01


@claim
def figure4(result):
    """Skew first on ⋈INL: dne under-estimates, pmax keeps its μ=2 bound."""
    xs = [x for x, _ in result["series"]["dne"]]
    assert xs == sorted(xs)
    assert result["mu"] <= 2.01
    assert result["dne_max_abs_error"] > 0.3   # paper: ~49% under-estimate
    assert result["pmax_max_abs_error"] < 0.15
    assert all(diff < 0 for diff in _mid_run(result["series"]["dne"]))


@claim
def figure5(result):
    """Skew last: dne over-estimates massively; safe is far closer."""
    assert set(result["series"]) == {"dne", "safe"}
    assert result["dne_max_abs_error"] > 0.3   # paper: ~49.5%
    assert result["safe_max_abs_error"] < result["dne_max_abs_error"] * 0.6
    assert all(diff > 0 for diff in _mid_run(result["series"]["dne"]))


@claim
def figure6(result):
    """pmax on TPC-H Q21: the ratio error decays and converges to 1."""
    series = result["series"]["pmax ratio error"]
    assert all(err >= 1.0 for _, err in series)
    early = max(err for actual, err in series if actual < 0.3)
    late = max(err for actual, err in series if actual > 0.7)
    assert late < early
    assert result["error_after_30pct"] < 4.0
    assert result["error_after_70pct"] < result["error_after_30pct"]
    assert result["error_after_70pct"] < 1.6
    assert series[-1][1] < 1.05
    assert series[-1][1] == pytest.approx(1.0, abs=0.05)


@claim
def figure7(result):
    """Skew filtered out: dne near-exact, safe off by ~20% (its price)."""
    assert result["dne_max_abs_error"] < 0.05
    assert result["safe_max_abs_error"] > 0.1
    assert result["safe_max_abs_error"] > result["dne_max_abs_error"] * 3
    assert result["safe_final_error"] >= 0.0


@claim
def table1(rows):
    """Every estimator improves from ⋈INL to ⋈hash; safe has the lowest
    max error.  Paper: dne/pmax 49.5% (INL), safe 25.2% (INL)."""
    assert [row.estimator for row in rows] == ["dne", "pmax", "safe"]
    by_name = {row.estimator: row for row in rows}
    for row in rows:
        assert 0 <= row.avg_err_inl <= row.max_err_inl <= 1
        assert row.max_err_hash < row.max_err_inl
        assert row.avg_err_hash < row.avg_err_inl
    assert by_name["safe"].max_err_inl < by_name["dne"].max_err_inl
    assert by_name["safe"].max_err_inl < by_name["pmax"].max_err_inl
    assert by_name["safe"].max_err_hash <= by_name["pmax"].max_err_hash
    assert abs(by_name["dne"].max_err_inl - 0.495) < 0.1
    assert abs(by_name["pmax"].max_err_inl - 0.495) < 0.1
    assert by_name["dne"].max_err_inl == pytest.approx(0.49, abs=0.1)
    assert by_name["safe"].max_err_inl == pytest.approx(0.22, abs=0.08)
    assert by_name["dne"].max_err_hash < 0.2
    assert by_name["pmax"].max_err_hash < 0.25


@claim
def table2(values):
    """μ per TPC-H query: all in [1, 3.5], most near 1, Q21 the largest,
    Q1 pinned near the paper's 1.989."""
    assert set(values) == set(range(1, 22))
    assert all(1.0 <= value <= 3.5 for value in values.values())
    assert abs(values[1] - PAPER_TABLE2[1]) < 0.1
    assert values[21] == max(values.values())
    assert len([v for v in values.values() if v < 1.5]) >= 12
    assert len([v for v in values.values() if v < 1.2]) >= 8


@claim
def table3(values):
    """μ per long-running SkyServer query: all small."""
    assert set(values) == set(PAPER_TABLE3) == {3, 6, 14, 18, 22, 28, 32}
    assert all(1.0 <= value <= 2.2 for value in values.values())
    assert sum(values.values()) / len(values) < 1.5


@claim
def ablation_lower_bound(result):
    """Theorem 1/6: identical answers on the twins force a ratio error of
    √9 = 3; safe pays exactly that, dne and pmax far more."""
    forced = result["forced_ratio_error"]
    optimal = result["optimal_bound"]
    assert set(forced) == {"dne", "pmax", "safe"}
    assert optimal == pytest.approx(3.0, rel=0.05)
    assert forced["safe"] <= optimal * 1.1
    assert forced["safe"] == pytest.approx(optimal, rel=0.1)
    assert forced["dne"] >= optimal * 2
    assert forced["pmax"] >= optimal * 2
    assert forced["dne"] > forced["safe"] * 1.5
    assert forced["pmax"] > forced["safe"] * 1.5
    for name in ("dne", "pmax", "safe"):
        assert abs(
            result["at_decision_x"][name] - result["at_decision_y"][name]
        ) < 1e-9


@claim
def ablation_predictive_orders(result):
    """Theorem 4: at least half of all orders are 2-predictive."""
    assert result["predictive"] <= result["trials"] == 600
    assert result["fraction"] >= 0.5


@claim
def ablation_scan_based(rows):
    """Property 6 on scan-based chains: μ ≤ m+1, safe ≤ √(m+1), pmax ≤ m+1."""
    assert rows[0]["m"] == 2
    for row in rows:
        assert row["mu"] <= row["mu_bound"]
        assert row["safe_max_ratio_error"] <= row["safe_bound"] * 1.01
        assert row["pmax_max_ratio_error"] <= row["mu_bound"] * 1.01


@claim
def ablation_hybrid(results):
    """§6.4: pmax wins skew-first, dne the good case, nobody every scenario."""
    assert set(results) == {
        "inl-skew_first", "inl-skew_last", "hash-skew_last", "inl-good-case",
    }
    assert results["inl-skew_first"]["pmax"] < results["inl-skew_first"]["dne"]
    assert results["inl-good-case"]["dne"] < results["inl-good-case"]["safe"]
    for name in ("dne", "pmax", "safe", "hybrid-mu", "hybrid-var"):
        wins = sum(
            1 for errors in results.values()
            if min(errors, key=errors.get) == name
        )
        assert wins < len(results)


@claim
def ablation_bytes_model(results):
    """§2.2: the conclusions hold under the bytes model of work too."""
    assert set(results) == {
        "getnext/inl", "getnext/hash", "bytes/inl", "bytes/hash",
    }
    for model in ("getnext", "bytes"):
        inl = results["%s/inl" % (model,)]
        hashed = results["%s/hash" % (model,)]
        assert inl["safe"] < inl["dne"]
        assert inl["safe"] < inl["pmax"]
        for name in ("dne", "pmax", "safe"):
            assert hashed[name] < inl[name]


@claim
def ablation_feedback(results):
    """Feedback: safe with no history, near-exact on a repeat, misled by a
    stale history on changed data (Theorem 7)."""
    assert set(results) == {"first-run", "repeat-run", "data-changed-twins"}
    first = results["first-run"]
    repeat = results["repeat-run"]
    twins = results["data-changed-twins"]
    assert abs(first["feedback"] - first["safe"]) < 1e-9
    assert repeat["feedback"] < 0.01
    assert repeat["feedback"] < repeat["safe"] * 0.1
    assert twins["feedback"] >= twins["safe"]


@claim
def ablation_skew_sweep(rows):
    """The tradeoff is created by skew: dne exact at z=0, worse as z grows,
    safe degrading far more slowly; μ stays 2 throughout."""
    by_z = {row["z"]: row for row in rows}
    assert by_z[0.0]["dne"] < 0.02
    assert by_z[2.5]["dne"] > by_z[1.0]["dne"] > by_z[0.0]["dne"]
    assert by_z[2.5]["safe"] < by_z[2.5]["dne"] * 0.6
    assert all(abs(row["mu"] - 2.0) < 0.01 for row in rows)


@claim
def ablation_scale_sweep(rows):
    """Scale-freeness: error fractions vary by < 5 points across 8x sizes."""
    for name in ("dne", "pmax", "safe"):
        values = [row[name] for row in rows]
        assert max(values) - min(values) < 0.05


def test_every_artifact_has_a_claim():
    assert set(CLAIMS) == set(ARTIFACTS)


@pytest.fixture(scope="module", params=list(ARTIFACTS))
def artifact(request):
    """``(name, result)``: one run per artifact, shared by the tests below."""
    return request.param, ARTIFACTS[request.param].run()


def test_the_paper_claim_holds(artifact):
    name, result = artifact
    CLAIMS[name](result)


def test_the_cli_prints_the_saved_text(artifact, capsys):
    name, result = artifact
    assert main(["experiments", name]) == 0
    assert capsys.readouterr().out == ARTIFACTS[name].render(result) + "\n"
