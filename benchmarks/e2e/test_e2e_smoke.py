"""Smoke self-test of the benchmark harness, at a reduced size.

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly::

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q -p no:cacheprovider

It drives ``run.py --smoke`` the way the benchmark's driver drives
``run.py``: a fresh process per run, the last line of standard output the
result.  No number it sees is a benchmark result.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Run:
    def __init__(self, workload, seed, trace, out):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", str(trace), "--smoke", "--out", out],
            stdout=subprocess.PIPE, text=True, timeout=180,
        )
        self.returncode = done.returncode
        self.lines = done.stdout.splitlines()
        self.result = json.loads(self.lines[-1])
        with open(out) as handle:
            self.entry = json.loads(handle.readlines()[-1])


@pytest.fixture(scope="module")
def runs():
    """Per workload: seed 7 twice and seed 8 once untraced, seed 7 traced."""
    out = os.path.join(HERE, "out", "smoke_%d.jsonl" % os.getpid())
    try:
        yield {
            workload: {
                "first": Run(workload, 7, 0, out),
                "again": Run(workload, 7, 0, out),
                "other_seed": Run(workload, 8, 0, out),
                "traced": Run(workload, 7, 1, out),
            }
            for workload in WORKLOADS
        }
    finally:
        if os.path.exists(out):
            os.remove(out)


def test_declared_names_are_well_formed_and_unique():
    names = WORKLOADS + [
        metric["name"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in {metric["name"] for metric in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_completes_without_failures(runs, workload):
    for run in runs[workload].values():
        assert run.returncode == 0
        assert run.result["correct"] is True
        assert run.result["failed"] == 0
        assert run.result["attempted"] >= 1
        assert set(run.result) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("kind, declared", [
    ("first", "end_to_end"), ("traced", "per_layer"),
])
def test_every_declared_metric_is_emitted_once(runs, workload, kind, declared):
    run = runs[workload][kind]
    metrics = run.result["metrics"]
    assert list(metrics) == [metric["name"] for metric in SPEC[declared]]
    for metric in SPEC[declared]:
        measured = metrics[metric["name"]]
        assert measured["unit"] == metric["unit"]
        assert isinstance(measured["value"], (int, float))
        assert measured["value"] == measured["value"]  # not NaN
        printed = [
            line for line in run.lines
            if line.split()[:1] == [metric["name"]]
        ]
        assert len(printed) == 1
    for metric in SPEC["end_to_end"] if declared == "end_to_end" else ():
        assert metrics[metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_move_with_it(runs, workload):
    first, again, other = (
        runs[workload][kind].entry["counts"]
        for kind in ("first", "again", "other_seed")
    )
    assert first == again
    assert first != other
    assert all(count > 0 for count in first.values())


def test_traced_run_writes_its_spans(runs):
    for workload in WORKLOADS:
        path = os.path.join(HERE, "out", "trace_%s.jsonl" % workload)
        with open(path) as handle:
            spans = [json.loads(line) for line in handle]
        assert spans
        assert all(
            set(span) == {"id", "name", "query_id", "parent", "start", "end"}
            and span["end"] >= span["start"]
            for span in spans
        )
        requests = {s["id"] for s in spans if s["name"] == "request"}
        assert requests
        assert any(span["parent"] in requests for span in spans)


def test_injected_oracle_violation_is_a_failed_operation():
    import oracle
    from tracing import Tracer
    from workloads import SMOKE, make

    workload = make("adversarial_joins", 7, SMOKE, Tracer())
    workload.setup()
    passes = workload.drive(0.0, min_passes=1)
    found = oracle.references(workload, Tracer())
    assert oracle.verify(workload, passes, found) == 0

    victim = passes[0].records[2]
    sample = victim.trace[len(victim.trace) // 2]
    sample["lower_bound"] = sample["upper_bound"] * 2  # LB above total
    assert oracle.verify(workload, passes, found) == 1
    assert "LB" in victim.error
    assert all(
        record.error is None
        for record in passes[0].records if record is not victim
    )
