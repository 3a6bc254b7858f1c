"""The repo's one benchmark: end-to-end and per-layer, at one pinned size.

    python3 benchmarks/e2e/run.py --workload tpch_mix --seed 42 \\
        --seconds 10 --trace 0          # one run, end-to-end metrics
    python3 benchmarks/e2e/run.py --workload tpch_mix --trace 1
                                        # one traced run, per-layer metrics
    python3 benchmarks/e2e/run.py all   # every workload, both kinds of run
    python3 benchmarks/e2e/run.py compare out/a.jsonl out/b.jsonl

A run is one fresh process and one workload: set-up, a closed loop for
``--seconds``, then the correctness oracle outside the clock.  The last
line on standard output is one JSON object, ``{"correct", "attempted",
"failed", "metrics"}``, with exactly the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` names.  The same record, with provenance, is appended
to ``out/results.jsonl`` (``--out`` names another file).  The exit code is
non-zero when any query failed.  See ``README.md`` beside this file.
"""

import time

# Set-up time runs from here: interpreter start-up is not the program's.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

# Every knob of the program resolves through $REPRO_*: a stray variable
# would silently benchmark another engine or backend.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

#: set-ups timed per run (this process plus fresh child processes); the
#: median is reported, because one set-up per run is one noisy sample
SETUP_SAMPLES = 3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one run ------------------------------------------------------------------------------


def run_workload(args) -> int:
    import layers
    import oracle
    from tracing import Tracer
    from workloads import PINNED, SMOKE, make

    spec = load_spec()
    sizes = SMOKE if args.smoke else PINNED
    traced = bool(args.trace)
    tracer = Tracer()
    tracer.enabled = traced

    setups = []
    if not traced and not args.setup_only:
        # Before this process grows: a child is cheapest to start now.
        setups = [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    workload = make(args.workload, args.seed, sizes, tracer)
    workload.setup()
    raw = time.perf_counter() - _STARTED - workload.gauge.spent
    setups.append({"raw": raw, "s": raw * workload.gauge.scale()})
    if args.setup_only:
        workload.stop()
        print(json.dumps(setups[0]))
        return 0

    # The traced run splits its seconds between the loop and the probes.
    try:
        passes = workload.drive(
            args.seconds / 2 if traced else args.seconds,
            trace_odd_passes=traced,
        )
    finally:
        workload.stop()
    found = oracle.references(workload, tracer)
    failed = oracle.verify(workload, passes, found)
    records = [record for done in passes for record in done.records]

    if traced:
        values = layers.measure(workload, tracer, passes, found)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "trace_%s.jsonl" % workload.name))
        declared = spec["per_layer"]
    else:
        values = end_to_end(
            passes, [s["s"] for s in setups], workload.peak_rss_mb,
        )
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit("metrics not measured: %s" % ", ".join(missing))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }

    first_pass = passes[0].records
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    entry = dict(result)
    entry.update({
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "sizes": vars(sizes) if args.smoke else "pinned",
        "passes": len(passes),
        # what the calibrated durations were computed from
        "raw": None if traced else end_to_end(
            passes, [s["raw"] for s in setups], workload.peak_rss_mb,
            calibrated=False,
        ),
        "gauge_ms": [
            round(1e3 * reading, 3) for reading in workload.gauge.readings
        ],
        # exact per-pass counts: equal for equal seeds, whatever the speed
        "counts": {
            "ticks": sum(record.ticks for record in first_pass),
            "samples": sum(record.samples for record in first_pass),
            "events": sum(record.events for record in first_pass),
        },
        "failures": sorted({
            "%s: %s" % (record.klass, record.error)
            for record in records if record.error is not None
        })[:10],
        "provenance": provenance(),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })
    _append(args.out, entry)

    print("%s seed=%d: %d queries in %d passes, %d failed" % (
        workload.name, args.seed, len(records), len(passes), failed,
    ))
    for failure in entry["failures"]:
        print("  FAILED %s" % failure)
    _print_metrics(metrics)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _print_metrics(metrics: dict) -> None:
    for name, measured in metrics.items():
        print("  %-40s %16.6g %s" % (name, measured["value"], measured["unit"]))


def _setup_in_child(args) -> dict:
    """Set-up seconds, raw and calibrated, of a fresh process that sets
    up and exits."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(passes, setup_seconds, peak_rss_mb, calibrated=True) -> dict:
    """The six end-to-end metrics of one untraced closed loop.

    Durations are in calibrated seconds (see ``gauge.py``) unless
    ``calibrated`` is false, which gives the raw wall-clock figures.
    """
    def seconds(interval: float, scale: float) -> float:
        return interval * scale if calibrated else interval

    done = [r for p in passes for r in p.records if r.error is None]
    if not done:
        raise SystemExit(
            "every query failed: %s" % passes[0].records[0].error
        )
    by_class = {}
    for record in done:
        by_class.setdefault(record.klass, []).append(record)

    def class_medians(milliseconds) -> list:
        """Each statement class's median, ascending: a percentile taken
        over these sits on a class's typical value, where one taken over
        the pooled queries of an even number of classes would jump
        between the two classes around the middle."""
        return sorted(
            statistics.median(milliseconds(r) for r in records)
            for records in by_class.values()
        )

    latencies = class_medians(
        lambda r: 1e3 * seconds(r.end - r.submit, r.scale)
    )
    return {
        "setup_s": statistics.median(setup_seconds),
        "ticks_per_s": statistics.median(
            p.ticks / seconds(p.wall, p.scale) for p in passes
        ),
        "peak_rss_mb": peak_rss_mb,
        "query_p50_ms": statistics.median(latencies),
        # nearest rank: the smallest with 90 % of the classes at or below
        "query_p90_ms": latencies[math.ceil(0.9 * len(latencies)) - 1],
        "first_estimate_p50_ms": statistics.median(class_medians(
            lambda r: 1e3 * seconds(r.first_sample - r.submit, r.scale)
        )),
    }


def provenance() -> dict:
    from repro.options import ExecutionOptions
    from workloads import usable_cores

    sha = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {
        "nproc": usable_cores(),
        "python": platform.python_version(),
        "numpy": _version_of("numpy"),
        "platform": platform.platform(),
        "uvloop": importlib.util.find_spec("uvloop") is not None,
        "websockets": importlib.util.find_spec("websockets") is not None,
        "options": ExecutionOptions().resolve().to_dict(),
        "git_sha": sha,
    }


def _version_of(module: str):
    """The module's version, or None where it is not installed."""
    if importlib.util.find_spec(module) is None:
        return None
    return getattr(importlib.import_module(module), "__version__", "unknown")


def _append(path: str, entry: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True))
        handle.write("\n")


# -- every workload ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process; every metric printed by name."""
    spec = load_spec()
    kinds = (0, 1) if args.trace is None else (args.trace,)
    status = 0
    rows = []
    for workload in spec["workloads"]:
        for trace in kinds:
            for _ in range(args.repeat):
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", workload["name"],
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", args.out,
                ]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True)
                lines = done.stdout.splitlines()
                if done.returncode != 0:
                    status = 1
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    print("%s --trace %d produced no result (exit %d)" % (
                        workload["name"], trace, done.returncode,
                    ))
                    status = 1
                    continue
                rows.append((workload["name"], trace, result))
    for name, trace, result in rows:
        print("%s%s: attempted %d, failed %d" % (
            name, " (traced)" if trace else "",
            result["attempted"], result["failed"],
        ))
        _print_metrics(result["metrics"])
    print("results appended to %s" % os.path.relpath(args.out))
    return status


# -- command line -----------------------------------------------------------------------------


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", nargs="?", default="run",
                        choices=("run", "all", "compare"))
    parser.add_argument("files", nargs="*",
                        help="compare: two result files")
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out",
                        default=os.path.join(OUT_DIR, "results.jsonl"),
                        help="result file to append to")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all: runs of each kind per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the smoke self-test only")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)
    if args.command == "compare":
        import compare

        if len(args.files) != 2:
            parser.error("compare takes two result files")
        return compare.main(args.files[0], args.files[1], spec)
    if args.command == "all":
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
