"""Concurrent execution: many TPC-H queries, one service, live progress.

Submits a batch of TPC-H queries onto the session's query service, polls
their progress from the main thread while the worker pool runs them,
cancels one mid-flight and gives another an impossible deadline — then
shows that every completed query's trace is bit-identical to a solo
single-threaded run of the same plan.

Run:  python examples/service_concurrent.py
"""

from __future__ import annotations

import threading
import time

import repro
from repro.core import ProgressRunner, standard_toolkit
from repro.workloads import build_query, generate_tpch

QUERIES = [1, 3, 6, 10, 12, 14]


def main() -> None:
    db = generate_tpch(scale=0.001, skew=2.0, seed=42)
    session = repro.connect(catalog=db.catalog, max_workers=4,
                            target_samples=50)

    handles = [
        session.submit(build_query(db, number), name="Q%d" % (number,))
        for number in QUERIES
    ]
    victim = session.submit(build_query(db, 21), name="Q21-cancelled")
    hopeless = session.submit(build_query(db, 9), name="Q9-deadline",
                              deadline=0.002)

    # Cancel the victim the moment it publishes its first progress sample
    # (a tight watcher, so the cancel lands mid-flight even on fast runs).
    def cancel_once_started() -> None:
        while victim.progress() is None and not victim.done:
            time.sleep(0.001)
        victim.cancel()

    threading.Thread(target=cancel_once_started, daemon=True).start()

    # Poll from this thread while the pool works.  progress() is the last
    # cadence sample the query published: free to read from any thread.
    while not all(h.done for h in handles + [victim, hopeless]):
        cells = []
        for handle in handles + [victim, hopeless]:
            live = handle.progress()
            if handle.done or live is None:
                cells.append("%s:%s" % (handle.name, handle.state.value))
            else:
                # Live samples are unlabeled under the single-pass
                # protocol (actual=None until completion) — a real
                # progress bar shows an estimator's answer instead.
                shown = live.actual
                if shown is None:
                    shown = live.estimates.get("safe", 0.0)
                cells.append("%s:%4.1f%%" % (handle.name, shown * 100))
        print("  ".join(cells))
        time.sleep(0.1)

    print()
    print("terminal states:")
    for handle in handles + [victim, hopeless]:
        print("  %-14s %s" % (handle.name, handle.state.value))

    # The service's core guarantee: concurrency changes scheduling, never
    # measurements.  Re-run Q6 solo and compare traces bit for bit.
    q6 = handles[QUERIES.index(6)]
    solo = ProgressRunner(
        build_query(db, 6), standard_toolkit(), db.catalog,
        target_samples=50, engine=session.engine,
    ).run()
    identical = q6.result().trace.samples == solo.trace.samples
    print()
    print("Q6 service trace == Q6 solo trace: %s" % (identical,))

    session.close()


if __name__ == "__main__":
    main()
