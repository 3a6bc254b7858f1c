"""Multi-core execution: the same workload on both service backends.

The thread backend runs queries concurrently but — the engine being pure
Python — the GIL serializes every tick.  ``backend="process"`` executes
each query in a worker process, so on a multi-core machine the same batch
finishes in a fraction of the wall time.  Everything else is identical:
handles, live sampling, cancellation, deadlines, and — shown below —
bit-identical traces.

Workers are forked with the catalog pre-loaded where the platform allows;
under ``spawn`` (Windows, or ``start_method="spawn"``) they re-open it from
a picklable spec, which is why this example keeps the idiomatic
``if __name__ == "__main__"`` guard: spawned workers re-import this module.

Run:  python examples/service_parallel.py
"""

from __future__ import annotations

import os
import time

import repro
from repro.workloads import build_query, generate_tpch

QUERIES = [1, 3, 5, 6, 10, 12, 14, 19]


def run_batch(db, backend: str) -> float:
    """The eight-query batch on one backend; returns wall seconds."""
    session = repro.connect(
        catalog=db.catalog,
        backend=backend,
        max_workers=4,
        target_samples=40,
    )
    with session:
        started = time.perf_counter()
        handles = [
            session.submit(build_query(db, number), name="Q%d" % (number,))
            for number in QUERIES
        ]
        # Handles behave identically on both backends: poll one mid-flight.
        live = handles[0].progress()
        while live is None and not handles[0].done:
            time.sleep(0.001)
            live = handles[0].progress()
        if live is not None and not handles[0].done:
            # actual is None while the query runs (single-pass protocol:
            # truth is labeled at completion); estimators answer live.
            print("  live sample while running: curr=%d, safe=%.1f%%"
                  % (live.curr, live.estimates.get("safe", 0.0) * 100))
        reports = [handle.result(timeout=600) for handle in handles]
        elapsed = time.perf_counter() - started
    traces = {n: r.trace.samples for n, r in zip(QUERIES, reports)}
    run_batch.traces[backend] = traces
    return elapsed


run_batch.traces = {}


def main() -> None:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    db = generate_tpch(scale=0.005, skew=2.0, seed=42)

    seconds = {}
    for backend in ("thread", "process"):
        print("%s backend:" % (backend,))
        seconds[backend] = run_batch(db, backend)
        print("  %d queries in %.2fs" % (len(QUERIES), seconds[backend]))

    identical = run_batch.traces["thread"] == run_batch.traces["process"]
    print()
    print("traces bit-identical across backends: %s" % (identical,))
    print("speedup: %.2fx on %d usable cores"
          % (seconds["thread"] / seconds["process"], cores))
    if cores == 1:
        print("(single-core machine: the process backend pays IPC overhead "
              "with no parallelism to gain — expect < 1x here)")


if __name__ == "__main__":
    main()
