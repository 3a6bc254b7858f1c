"""``run.py compare A B``: do two result sets agree within the bounds?

A result set is a file of result lines as ``run.py`` appends them; a set
may hold one run per workload or many.  For every (workload, end-to-end
metric) the tool prints both medians with their quartiles, the change, the
metric's bound from ``BENCHMARK.json`` and a verdict:

``unresolved``  the run-to-run spread of either set (distance between its
                quartiles over its median) is wider than the bound, so the
                sets cannot tell a regression from noise;
``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better by more than that spread (single-run
                sets: by more than the bound);
``within``      anything else.

Then the failed share per workload.  The exit code is non-zero when any
row is ``worse`` or ``unresolved`` or any query failed.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Tuple


def load(path: str) -> Dict[str, List[dict]]:
    """Untraced result lines of one set, by workload."""
    by_workload: Dict[str, List[dict]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry["trace"] == 0:
                by_workload.setdefault(entry["workload"], []).append(entry)
    return by_workload


def summarize(values: List[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def verdict(a: List[float], b: List[float], bound: float,
            better: str) -> Tuple[str, float]:
    """The verdict and B's signed change relative to A's median."""
    a_first, a_median, a_third = summarize(a)
    b_first, b_median, b_third = summarize(b)
    spread = max((a_third - a_first) / a_median,
                 (b_third - b_first) / b_median)
    change = (b_median - a_median) / a_median
    worse_by = -change if better == "higher" else change
    if spread > bound:
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    repeated = len(a) > 1 and len(b) > 1
    if -worse_by > (spread if repeated else bound):
        return "better", change
    return "within", change


def main(path_a: str, path_b: str, spec: dict) -> int:
    set_a, set_b = load(path_a), load(path_b)
    status = 0
    print("%-18s %-22s %-6s %32s %32s %8s %6s  %s" % (
        "workload", "metric", "unit", "A median [q1, q3] (n)",
        "B median [q1, q3] (n)", "change", "bound", "verdict",
    ))
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in set_a or name not in set_b:
            print("%-18s missing from %s" % (
                name, path_a if name not in set_a else path_b,
            ))
            status = 1
            continue
        for metric in spec["end_to_end"]:
            values = [
                [run["metrics"][metric["name"]]["value"] for run in runs]
                for runs in (set_a[name], set_b[name])
            ]
            outcome, change = verdict(
                values[0], values[1], metric["bound"], metric["better"],
            )
            if outcome in ("worse", "unresolved"):
                status = 1
            cells = []
            for runs in values:
                first, median, third = summarize(runs)
                cells.append("%.5g [%.5g, %.5g] (%d)" % (
                    median, first, third, len(runs),
                ))
            print("%-18s %-22s %-6s %32s %32s %+7.1f%% %5.0f%%  %s" % (
                name, metric["name"], metric["unit"], cells[0], cells[1],
                100 * change, 100 * metric["bound"], outcome,
            ))
    print()
    for workload in spec["workloads"]:
        shares = []
        for runs in (set_a.get(workload["name"], []),
                     set_b.get(workload["name"], [])):
            attempted = sum(run["attempted"] for run in runs)
            failed = sum(run["failed"] for run in runs)
            if failed:
                status = 1
            shares.append("%d/%d" % (failed, attempted))
        print("%-18s failed A %s, B %s" % (workload["name"], *shares))
    return status
