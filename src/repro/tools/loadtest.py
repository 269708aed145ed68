"""loadtest — open-loop million-request traffic runs with SLO reporting.

Usage::

    python -m repro loadtest [--workload W] [--mechanisms A,B,...] \\
        [--requests N] [--rate R] [--arrival poisson|lognormal|pareto] \\
        [--servers N] [--connections N] [--workers N] \\
        [--tenants name:weight,...] [--mix kind:weight,...] \\
        [--ramp 1,2,4,...] [--queue-limit N] [--slo-p99-ms N] \\
        [--serve-mode model|full] [--seed N] [--jobs N] \\
        [--spans] [--exemplars N] [--shed-exemplars N] \\
        [--out FILE] [--no-cache]

Generates a seeded open-loop arrival schedule (default: one million
requests), pushes it through a fleet of interposed ``--workload``
servers behind the simulated load balancer for every mechanism in
``--mechanisms``, and writes the merged SLO report to
``benchmarks/output/METRICS_slo.json`` (override with ``--out``).

``--rate 0`` (the default) auto-calibrates: the base rate becomes ~10 %
of the native fleet's measured capacity, so the default ramp
(1,2,4,8,16,32×) sweeps 10–320 % of capacity and the saturation knee
lands mid-staircase.  ``--serve-mode model`` (default) calibrates
per-kind service times on real interposed kernels and runs the
million-request schedule through the virtual-time queueing fabric;
``--serve-mode full`` drives every request through real server kernels
(ground truth, ~1000× slower — pair it with small ``--requests``).

Determinism contract: a fixed ``--seed`` yields a byte-identical
schedule and report whatever ``--jobs`` or engine tier ran it.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from repro.runapi import WORKLOADS
from repro.traffic.config import (ARRIVALS, DEFAULT_MIX, DEFAULT_RAMP,
                                  DEFAULT_TENANTS, SERVE_MODES,
                                  TrafficConfig)


def _parse_weights(text: str, flag: str) -> Tuple[Tuple[str, int], ...]:
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, weight = item.rpartition(":")
        if not sep:
            raise ValueError(f"{flag}: {item!r} is not name:weight")
        try:
            pairs.append((key, int(weight)))
        except ValueError:
            raise ValueError(f"{flag}: weight in {item!r} must be an int")
    if not pairs:
        raise ValueError(f"{flag}: no entries in {text!r}")
    return tuple(pairs)


def _parse_ramp(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--ramp: {text!r} must be comma-separated ints")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadtest", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    server_workloads = sorted(name for name, spec in WORKLOADS.items()
                              if spec.kind == "server")
    parser.add_argument("--workload", default="nginx",
                        choices=server_workloads,
                        help="server workload the fleet runs "
                        "(default nginx)")
    parser.add_argument("--mechanisms", default="native,K23-ultra",
                        help="comma-separated mechanism list "
                        "(default native,K23-ultra)")
    parser.add_argument("--requests", type=int, default=1_000_000,
                        help="scheduled arrivals (default 1000000)")
    parser.add_argument("--rate", type=int, default=0,
                        help="base arrivals/second; 0 = auto-calibrate "
                        "to ~10%% of native capacity (default)")
    parser.add_argument("--arrival", default="poisson", choices=ARRIVALS,
                        help="inter-arrival process (default poisson)")
    parser.add_argument("--servers", type=int, default=4,
                        help="fleet size behind the balancer (default 4)")
    parser.add_argument("--connections", type=int, default=2048,
                        help="simulated client connections (default 2048)")
    parser.add_argument("--workers", type=int, default=2,
                        help="serving workers per server (default 2)")
    parser.add_argument("--tenants",
                        default=",".join(f"{k}:{w}"
                                         for k, w in DEFAULT_TENANTS),
                        help="tenant:weight list (default %(default)s)")
    parser.add_argument("--mix",
                        default=",".join(f"{k}:{w}"
                                         for k, w in DEFAULT_MIX),
                        help="request-kind:weight list, kinds "
                        "small/medium/large, optionally tenant-scoped "
                        "as tenant:kind:weight (default %(default)s)")
    parser.add_argument("--ramp",
                        default=",".join(str(m) for m in DEFAULT_RAMP),
                        help="per-stage rate multipliers "
                        "(default %(default)s)")
    parser.add_argument("--queue-limit", type=int, default=4096,
                        help="per-server leveling-queue bound; beyond "
                        "it the balancer sheds (default 4096)")
    parser.add_argument("--slo-p99-ms", type=int, default=2,
                        help="p99 latency budget defining the knee "
                        "(default 2 ms)")
    parser.add_argument("--spans", action="store_true",
                        help="per-request span tracing: the report "
                        "grows a rank-based exemplar section "
                        "(inspect with python -m repro sloexplain)")
    parser.add_argument("--exemplars", type=int, default=4,
                        help="slowest span trees kept per (stage, "
                        "tenant, kind) group (default 4)")
    parser.add_argument("--shed-exemplars", type=int, default=16,
                        help="earliest shed span trees kept per group "
                        "(default 16)")
    parser.add_argument("--serve-mode", default="model",
                        choices=SERVE_MODES,
                        help="model = calibrated queueing fabric "
                        "(default); full = drive every request through "
                        "real kernels")
    parser.add_argument("--calibration-requests", type=int, default=400,
                        help="real requests per mechanism for service-"
                        "time calibration (default 400)")
    parser.add_argument("--seed", type=int, default=0,
                        help="schedule + kernel seed (default 0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes; the fleet shards by "
                        "server, report stays byte-identical (default 1)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="report path (default benchmarks/output/"
                        "METRICS_slo.json)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the evaluation result cache")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    mechanisms = [name.strip() for name in args.mechanisms.split(",")
                  if name.strip()]
    if not mechanisms:
        print("loadtest: --mechanisms is empty", file=sys.stderr)
        return 2
    from repro.interposers.registry import REGISTRY, UnknownMechanismError
    try:
        mechanisms = [REGISTRY.canonical(name) for name in mechanisms]
    except UnknownMechanismError as exc:
        print(f"loadtest: {exc}", file=sys.stderr)
        return 2
    try:
        traffic = TrafficConfig(
            requests=args.requests,
            rate=args.rate,
            arrival=args.arrival,
            servers=args.servers,
            connections=args.connections,
            workers=args.workers,
            tenants=_parse_weights(args.tenants, "--tenants"),
            mix=_parse_weights(args.mix, "--mix"),
            ramp=_parse_ramp(args.ramp),
            queue_limit=args.queue_limit,
            calibration_requests=args.calibration_requests,
            serve_mode=args.serve_mode,
            slo_p99_ms=args.slo_p99_ms,
            spans=args.spans,
            exemplars=args.exemplars,
            shed_exemplars=args.shed_exemplars)
    except ValueError as exc:
        print(f"loadtest: {exc}", file=sys.stderr)
        return 2

    from repro.evaluation.cache import NullCache, ResultCache
    from repro.traffic.engine import run_loadtest
    from repro.traffic.slo import DEFAULT_OUTPUT, summarize

    cache = NullCache() if args.no_cache else ResultCache()
    started = time.monotonic()
    try:
        report = run_loadtest(mechanisms, args.workload, traffic,
                              seed=args.seed, jobs=args.jobs, cache=cache)
    except Exception as exc:  # registry errors, calibration failures
        print(f"loadtest: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started

    print(summarize(report))
    if report.stats is not None:
        print(report.stats.summary())
    path = report.write(args.out or DEFAULT_OUTPUT)
    print(f"report: {path} ({elapsed:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
