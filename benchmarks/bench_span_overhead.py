#!/usr/bin/env python
"""Span-tracing overhead gate: loadtest throughput with and without
``--spans``.

    PYTHONPATH=src python benchmarks/bench_span_overhead.py [--smoke]
        [--assert-within PCT]

Runs the same full-serve load test twice in one process — spans off,
then spans on — best of N rounds each, against a pre-warmed calibration
cache and with the evaluation result cache disabled, so the only
difference between the arms is the :class:`TraceContext` record path.
The gate fails (exit 1) when the spans-on requests/sec falls more than
``--assert-within`` percent (default 2) below the spans-off baseline
measured in the same invocation: per-request span assembly must stay in
the noise.  The report JSON (protocol ``span-overhead-v1``; cells
``spans-off`` / ``spans-on``, whose ``insns_per_sec`` carries completed
requests per second) goes to stdout.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

PROTOCOL = "span-overhead-v1"
WORKLOAD = "redis"
SEED = 17


def _traffic(smoke: bool, spans: bool):
    from repro.traffic.config import TrafficConfig

    return TrafficConfig(
        requests=200 if smoke else 800,
        servers=2,
        connections=16,
        calibration_requests=10 if smoke else 25,
        workers=2,
        ramp=(2, 6),
        serve_mode="full",
        spans=spans,
    )


def _measure(spans: bool, smoke: bool, rounds: int) -> dict:
    from repro.evaluation.cache import NullCache
    from repro.traffic.engine import run_loadtest

    best = None
    completed = 0
    for _ in range(rounds):
        started = time.perf_counter()
        report = run_loadtest(["zpoline-default"], WORKLOAD,
                              _traffic(smoke, spans), seed=SEED,
                              cache=NullCache())
        elapsed = time.perf_counter() - started
        completed = report.doc["mechanisms"]["zpoline-default"] \
            ["totals"]["completed"]
        if best is None or elapsed < best:
            best = elapsed
    return {
        "insns_per_sec": round(completed / best, 1),
        "sim_cycles": report.doc["schedule"]["span_ns"],
        "instructions": completed,
        "best_seconds": round(best, 4),
    }


def _warm_calibration(smoke: bool) -> None:
    """One throwaway run so both arms see a hot in-process calibration
    cache (calibration cost would otherwise land only on the first arm)."""
    from repro.evaluation.cache import NullCache
    from repro.traffic.engine import run_loadtest

    import dataclasses

    warm = dataclasses.replace(_traffic(smoke, spans=False), requests=40)
    run_loadtest(["zpoline-default"], WORKLOAD, warm, seed=SEED,
                 cache=NullCache())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller load test, single round")
    parser.add_argument("--assert-within", type=float, default=2.0,
                        metavar="PCT",
                        help="fail unless spans-on throughput is within "
                             "PCT%% of the same-process spans-off "
                             "baseline (default %(default)s)")
    args = parser.parse_args(argv)
    rounds = 1 if args.smoke else 3

    print("warming calibration ...", file=sys.stderr)
    _warm_calibration(args.smoke)

    cells = {}
    for label, spans in (("spans-off", False), ("spans-on", True)):
        print(f"{WORKLOAD} [{label}] ...", file=sys.stderr)
        cells[label] = _measure(spans, args.smoke, rounds)
    off = cells["spans-off"]["insns_per_sec"]
    on = cells["spans-on"]["insns_per_sec"]
    cells["overhead_pct"] = round((off - on) / off * 100.0, 2) if off else 0.0

    report = {
        "protocol": PROTOCOL,
        "workloads": {WORKLOAD: cells},
    }
    print(json.dumps(report, indent=2, sort_keys=True))

    floor = off * (1 - args.assert_within / 100.0)
    verdict = "OK" if on >= floor else "REGRESSED"
    print(f"span overhead: {cells['overhead_pct']}% "
          f"({on:,} req/s with spans vs {off:,} without; floor "
          f"{floor:,.1f}, -{args.assert_within}%): {verdict}",
          file=sys.stderr)
    return 0 if on >= floor else 1


if __name__ == "__main__":
    raise SystemExit(main())
