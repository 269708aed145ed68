"""evalrun — regenerate the paper's tables, figures and report.

Usage::

    python -m repro.tools.evalrun [TARGET] [options]

Targets: ``table2``, ``table3``, ``table4`` and ``figure1``..``figure4``
print one artifact; ``table5``, ``table6`` and ``matrix`` (the default:
every Table 5 + Table 6 cell) run the parallel, memoized pipeline, all
of an invocation's cells (the METRICS snapshots included) in one pool;
``report`` regenerates everything into one markdown report, streamed to
stdout and written to benchmarks/output/report.md.

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
                    table5/matrix, which --smoke or --mechanisms may
                    only write elsewhere; --no-metrics disables)

Every target accepts ``--jobs``, ``--no-cache`` and ``--cache-dir``
(``report`` is the other target that runs pipeline cells); the other
options apply only to ``table5``, ``table6`` and ``matrix``, and
``--metrics-out``/``--no-metrics`` only to ``table5`` and ``matrix``.
Tables are printed to stdout exactly as the serial harness renders
them; pipeline accounting (cache hits, misses, failures, pool fallback)
goes to stderr so redirected table output stays byte-identical to a
serial run.  ``repro.evaluation.manifest.ARTIFACTS`` names the
command that writes each committed file under benchmarks/output/.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

from repro.evaluation import pipeline as pipe
from repro.evaluation.cache import ResultCache
from repro.evaluation.manifest import output_refusal
from repro.evaluation.runner import MACRO_BY_KEY
from repro.interposers.registry import REGISTRY

MATRIX_TARGETS = ("table5", "table6", "matrix")

#: The targets that write the METRICS artifact.
METRICS_TARGETS = ("table5", "matrix")

#: The options that change nothing in the METRICS artifact: its cells
#: run a fixed seed and no Table 6 row.
METRICS_NEUTRAL = ("jobs", "seed", "no_cache", "cache_dir", "rows", "list",
                   "clear_cache", "verbose", "trace_out", "metrics_out",
                   "no_metrics")


def _reject_options(parser, target: str, options, takers) -> None:
    """Exit 2 naming every option in *options* (flag → value) that was
    given, since only the *takers* targets take them."""
    given = [flag for flag, value in options.items() if value]
    if given:
        parser.error(f"{target} does not take {', '.join(given)} "
                     f"(only {', '.join(takers)} do)")


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


def _show(matrix: pipe.MatrixRun, label: str, verbose: bool) -> int:
    """Print *matrix*'s tables (its accounting to stderr); 1 if a cell
    failed."""
    run = matrix.run
    print(f"{label}: {run.stats.summary()}", file=sys.stderr)
    if verbose:
        for result in run.results.values():
            state = "fail" if not result.ok else result.source
            print(f"  [{state:>8}] {result.spec.label} "
                  f"({result.duration:.2f}s)", file=sys.stderr)
    for failure in run.failures():
        print(f"FAILED {failure.spec.label} (seed {failure.spec.seed}):\n"
              f"{failure.error}", file=sys.stderr)
    for table in (matrix.table5, matrix.table6):
        if table is not None and table.text is not None:
            print(table.text)
    return 1 if run.failures() else 0


def _figure(number: int) -> str:
    from repro.evaluation.figures import render_figure

    return render_figure(number)


def _table2() -> str:
    from repro.evaluation.tables import render_table2, table2_site_counts

    return render_table2(table2_site_counts())


def _table3() -> str:
    from repro.pitfalls import pitfall_matrix, render_table3

    return render_table3(pitfall_matrix(), show_evidence=True)


def _table4() -> str:
    from repro.evaluation.tables import render_table4

    return render_table4()


#: The targets that print one artifact and take no pipeline option.
ARTIFACT_TARGETS = {
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    **{f"figure{n}": functools.partial(_figure, n) for n in (1, 2, 3, 4)},
}


def _report(jobs: int, cache: Optional[ResultCache]) -> None:
    from repro.evaluation.report import REPORT_PATH, generate_report

    text = generate_report(out=sys.stdout, jobs=jobs, cache=cache)
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(text)
    print(f"report: {REPORT_PATH}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="evalrun", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("target", nargs="?", default="matrix",
                        choices=[*ARTIFACT_TARGETS, *MATRIX_TARGETS,
                                 "report"])
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

    jobs = max(1, args.jobs)
    metrics_only = {"--metrics-out": args.metrics_out,
                    "--no-metrics": args.no_metrics}
    if args.target == "table6":
        _reject_options(parser, args.target, metrics_only, METRICS_TARGETS)
    if args.target not in MATRIX_TARGETS:
        _reject_options(parser, args.target, {
            "--seed": args.seed is not None, "--smoke": args.smoke,
            "--rows": args.rows, "--mechanisms": args.mechanisms,
            "--trace-out": args.trace_out, **metrics_only,
            "--verbose": args.verbose}, MATRIX_TARGETS)
        if args.target == "report":
            _report(jobs, cache)
        else:
            print(ARTIFACT_TARGETS[args.target]())
        return 0

    for name in args.mechanisms or ():
        if name not in REGISTRY:
            parser.error(f"unknown mechanism {name!r}; "
                         f"valid: {', '.join(REGISTRY.names())}")
    mechanisms = pipe.table_mechanisms(args.mechanisms, args.smoke)

    for key in args.rows or ():
        if key not in MACRO_BY_KEY:
            parser.error(f"unknown table6 row {key!r}; "
                         f"rows: {', '.join(MACRO_BY_KEY)}")

    metrics = args.target in METRICS_TARGETS and not args.no_metrics
    if metrics and args.metrics_out is None:
        from repro.evaluation.metrics import METRICS_TABLE5_PATH

        refusal = output_refusal(parser, args, METRICS_TABLE5_PATH,
                                 METRICS_NEUTRAL, "--metrics-out")
        if refusal:
            parser.error(refusal)

    if args.verbose:
        print(_interp_probe(), file=sys.stderr)

    tables = ("table5", "table6") if args.target == "matrix" else \
        (args.target,)
    matrix = pipe.run_matrix(
        tables, args.rows, mechanisms, smoke=args.smoke, seed=args.seed,
        jobs=jobs, cache=cache, metrics=metrics)
    status = _show(matrix, args.target, args.verbose)

    if status == 0 and matrix.metrics is not None:
        from repro.evaluation.metrics import (METRICS_TABLE5_PATH,
                                              write_metrics)

        out = write_metrics(matrix.metrics,
                            args.metrics_out or METRICS_TABLE5_PATH)
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
