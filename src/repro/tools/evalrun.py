"""evalrun — drive the parallel, memoized evaluation pipeline.

Usage::

    python -m repro.tools.evalrun [table5|table6|matrix] [options]

    --jobs N        worker processes (default: os.cpu_count())
    --seed N        base cell seed (default: 20 for table5 cells, 30 for
                    table6 cells — passing one value pins both)
    --no-cache      recompute every cell, write nothing
    --cache-dir D   cache location (default ~/.cache/repro-eval or
                    $REPRO_EVAL_CACHE)
    --smoke         reduced matrix: 2 mechanisms, tiny iteration counts
    --rows K [K..]  restrict table6 to the given row keys
    --mechanisms M [M..]  restrict the mechanism axis
    --list          print the mechanism registry and exit
    --clear-cache   drop every cached cell and exit
    --verbose       per-cell hit/miss/fail lines on stderr
    --trace-out F   also record one representative stress run (the first
                    non-native mechanism on the axis) through the
                    instrumentation bus and write a Perfetto/Chrome
                    trace-event JSON
    --metrics-out F CounterSink snapshots artifact (default:
                    benchmarks/output/METRICS_table5.json when running
                    table5/matrix; --no-metrics disables)

``matrix`` (the default) runs every Table 5 + Table 6 cell.  Tables are
printed to stdout exactly as the serial harness renders them; pipeline
accounting (cache hits, misses, failures, pool fallback) goes to stderr so
redirected table output stays byte-identical to a serial run.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.evaluation import pipeline as pipe
from repro.evaluation.cache import ResultCache
from repro.evaluation.runner import MACRO_BY_KEY
from repro.evaluation.tables import render_table5, render_table6
from repro.interposers.registry import REGISTRY


def _interp_probe() -> str:
    """One-line interpreter health probe (``--verbose``): insns/sec plus
    icache / block-cache hit rates on a short native syscall-stress run."""
    import time

    from repro.runapi import RunConfig, boot

    prepared = boot(RunConfig("native", "stress", seed=42, aslr=True,
                              params=(("iterations", 500),)))
    kernel, process = prepared.kernel, prepared.spawn()
    started = time.perf_counter()
    retired = kernel.run_process(process, max_steps=2_000_000)
    elapsed = time.perf_counter() - started
    stats = kernel.interp_stats()
    fetches = stats["icache_hits"] + stats["icache_misses"]
    icache_rate = stats["icache_hits"] / fetches if fetches else 0.0
    units = stats["block_hits"] + stats["block_installs"]
    block_rate = stats["block_hits"] / units if units else 0.0
    mode = kernel.engine.tiers(kernel.block_cache_enabled)
    return (f"interp[{mode}]: {retired / elapsed:,.0f} insns/sec "
            f"(icache hit {icache_rate:.1%}, block hit {block_rate:.1%}, "
            f"{retired} insns; chains {stats['chain_follows']}, "
            f"sb hits {stats['superblock_hits']}, "
            f"trace hits {stats['trace_hits']}, "
            f"guard fails {stats['guard_fails']})")


def _echo(run: pipe.PipelineRun, label: str, verbose: bool) -> None:
    print(f"{label}: {run.stats.summary()}", file=sys.stderr)
    if verbose:
        for result in run.results.values():
            state = "fail" if not result.ok else result.source
            print(f"  [{state:>8}] {result.spec.label} "
                  f"({result.duration:.2f}s)", file=sys.stderr)
    for failure in run.failures():
        print(f"FAILED {failure.spec.label} (seed {failure.spec.seed}):\n"
              f"{failure.error}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="evalrun", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("target", nargs="?", default="matrix",
                        choices=["table5", "table6", "matrix"])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--seed", type=int, default=None,
                        help="base cell seed (default: micro 20, macro 30)")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--rows", nargs="+", default=None,
                        metavar="KEY", help="table6 row keys")
    parser.add_argument("--mechanisms", nargs="+", default=None,
                        metavar="MECH")
    parser.add_argument("--list", action="store_true",
                        help="print the mechanism registry and exit")
    parser.add_argument("--clear-cache", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Perfetto trace of one representative "
                             "stress run")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="METRICS artifact path (default: "
                             "benchmarks/output/METRICS_table5.json)")
    parser.add_argument("--no-metrics", action="store_true",
                        help="skip the METRICS artifact")
    args = parser.parse_args(argv)

    if args.list:
        print(REGISTRY.describe())
        return 0

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.clear_cache:
        removed = (cache or ResultCache(args.cache_dir)).clear()
        print(f"cleared {removed} cached cells", file=sys.stderr)
        return 0

    mechanisms = args.mechanisms
    if mechanisms:
        for name in mechanisms:
            if name not in REGISTRY:
                parser.error(f"unknown mechanism {name!r}; "
                             f"valid: {', '.join(REGISTRY.names())}")
        if "native" not in mechanisms:
            mechanisms = ["native"] + list(mechanisms)
    elif args.smoke:
        mechanisms = list(pipe.SMOKE_MECHANISMS)
    else:
        mechanisms = list(REGISTRY.names())

    rows = args.rows
    if rows:
        for key in rows:
            if key not in MACRO_BY_KEY:
                parser.error(f"unknown table6 row {key!r}; "
                             f"rows: {', '.join(MACRO_BY_KEY)}")
    elif args.smoke:
        rows = list(pipe.SMOKE_MACRO_KEYS)

    jobs = max(1, args.jobs)
    status = 0

    if args.verbose:
        print(_interp_probe(), file=sys.stderr)

    micro_kwargs = {} if args.seed is None else {"seed": args.seed}
    if args.target in ("table5", "matrix"):
        if args.smoke:
            low, high = pipe.SMOKE_MICRO_ITERATIONS
            specs = pipe.micro_specs(mechanisms, iterations_low=low,
                                     iterations_high=high, **micro_kwargs)
        else:
            specs = pipe.micro_specs(mechanisms, **micro_kwargs)
        run = pipe.run_cells(specs, jobs=jobs, cache=cache)
        _echo(run, "table5", args.verbose)
        if run.failures():
            status = 1
        else:
            print(render_table5(
                pipe.table5_overheads(run, mechanisms[1:])))

    if args.target in ("table6", "matrix"):
        macro_kwargs = {} if args.seed is None else {"seed": args.seed}
        specs = pipe.macro_specs(rows, mechanisms, **macro_kwargs)
        run = pipe.run_cells(specs, jobs=jobs, cache=cache)
        _echo(run, "table6", args.verbose)
        if run.failures():
            status = 1
        else:
            print(render_table6(pipe.table6_rows(run, rows, mechanisms)))

    if (args.target in ("table5", "matrix") and status == 0
            and not args.no_metrics):
        from repro.evaluation.metrics import (METRICS_TABLE5_PATH,
                                              collect_mechanism_metrics,
                                              write_metrics)

        iterations = 48 if args.smoke else 120
        doc = collect_mechanism_metrics(mechanisms, iterations=iterations)
        out = write_metrics(doc, args.metrics_out or METRICS_TABLE5_PATH)
        print(f"metrics: {out}", file=sys.stderr)

    if args.trace_out is not None:
        representative = next((m for m in mechanisms if m != "native"),
                              mechanisms[0])
        out = _trace_stress(representative, args.trace_out)
        print(f"trace: {out} (mechanism: {representative})", file=sys.stderr)

    return status


def _trace_stress(mechanism: str, trace_out: str, iterations: int = 60,
                  seed: int = 99):
    """One stress run under *mechanism* with a TraceSink attached —
    assembled through the :mod:`repro.api` run surface."""
    from repro.api import RunConfig, run

    result = run(RunConfig(mechanism=mechanism, workload="stress",
                           seed=seed, trace_path=str(trace_out),
                           params=(("iterations", iterations),)))
    if not result.ok:
        raise RuntimeError(f"trace run failed under {mechanism}")
    return result.trace_path


if __name__ == "__main__":
    raise SystemExit(main())
