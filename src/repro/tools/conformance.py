"""``python -m repro.tools.conformance`` — the differential conformance CLI.

Runs every registered interposition mechanism against the ``native``
null-interposer oracle on the stress/coreutils workloads under N seeded
fault schedules, prints the verdict matrix, writes the JSON artifact, and
exits non-zero on any divergence.  ``--both-modes`` repeats the matrix
with the block-translation cache disabled and additionally fails if any
cell's verdict differs between the two interpreter modes (schedule
determinism must hold across them).  ``--smoke`` shrinks the matrix to a
CI-sized corner (stress+cat, seeds 1-2).  Only the default matrix
writes the committed artifact (``benchmarks/output/CONFORMANCE_matrix.json``)
without ``--out``; any other matrix exits 2 unless ``--out`` names a
file.  ``--jobs N`` fans the cells out over a process pool
(cell-for-cell identical to serial); ``--trace-out``
additionally records one representative cell through the instrumentation
bus and writes a Perfetto trace — the bus is observe-only, so verdicts
are byte-identical with tracing on or off.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.evaluation.conformance import (ARTIFACT_PATH, DEFAULT_SEEDS,
                                          DEFAULT_WORKLOADS, run_matrix)

SMOKE_WORKLOADS = ("stress", "cat")
SMOKE_SEEDS = (1, 2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="conformance",
        description="Differential conformance of every registered "
                    "interposer vs the null-interposer oracle under "
                    "seeded fault schedules.")
    parser.add_argument("--seeds", type=int, default=len(DEFAULT_SEEDS),
                        help="number of fault-schedule seeds (default: "
                             f"{len(DEFAULT_SEEDS)}, i.e. seeds BASE.."
                             "BASE+N-1)")
    parser.add_argument("--seed", type=int, default=1, metavar="BASE",
                        help="first fault-schedule seed (default: 1)")
    parser.add_argument("--workloads", nargs="+",
                        default=list(DEFAULT_WORKLOADS),
                        help="workloads to run (default: "
                             f"{' '.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--mechanisms", nargs="+", default=None,
                        help="mechanisms to check (default: all registered)")
    parser.add_argument("--both-modes", action="store_true",
                        help="also run with the block cache disabled and "
                             "require identical verdicts")
    parser.add_argument("--out", default=None,
                        help=f"JSON artifact path (default: {ARTIFACT_PATH}, "
                             "which only the default matrix may write)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized matrix: workloads "
                             f"{'+'.join(SMOKE_WORKLOADS)}, seeds "
                             f"{SMOKE_SEEDS[0]}-{SMOKE_SEEDS[-1]}")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the cell fan-out "
                             "(default: 1 — serial)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Perfetto trace of one representative "
                             "cell (does not change any verdict)")
    parser.add_argument("--verbose", action="store_true",
                        help="print each cell verdict as it completes")
    args = parser.parse_args(argv)

    if args.smoke:
        workloads = list(SMOKE_WORKLOADS)
        seeds = list(SMOKE_SEEDS)
    else:
        workloads = args.workloads
        seeds = list(range(args.seed, args.seed + args.seeds))
    default_matrix = (args.mechanisms is None
                      and tuple(workloads) == DEFAULT_WORKLOADS
                      and tuple(seeds) == DEFAULT_SEEDS)
    if args.out is None and not default_matrix:
        print(f"conformance: only the default matrix writes {ARTIFACT_PATH};"
              " pass --out FILE for any other matrix", file=sys.stderr)
        return 2
    matrix = run_matrix(mechanisms=args.mechanisms,
                        workloads=workloads, seeds=seeds,
                        jobs=max(1, args.jobs),
                        verbose=args.verbose)
    print(matrix.render())
    artifact = matrix.write_artifact(args.out or ARTIFACT_PATH)
    print(f"\nartifact: {artifact}")
    status = 0 if matrix.ok else 1

    if args.trace_out is not None:
        from repro.faultinject.conformance import run_cell
        from repro.interposers.registry import REGISTRY
        from repro.observability.export import TraceSink, write_chrome_trace

        mech = next(m for m in (args.mechanisms or REGISTRY.names())
                    if m != "native")
        sink = TraceSink(mechanism=mech, workload=workloads[0])
        run_cell(mech, workloads[0], seeds[0], trace_sink=sink)
        written = write_chrome_trace(sink, args.trace_out)
        print(f"trace: {written} (cell: {mech}/{workloads[0]}"
              f"/seed={seeds[0]})")

    if args.both_modes:
        print("\nre-running with block cache disabled...")
        nocache = run_matrix(mechanisms=args.mechanisms,
                             workloads=workloads, seeds=seeds,
                             block_cache=False, jobs=max(1, args.jobs),
                             verbose=args.verbose)
        if not nocache.ok:
            print(nocache.render())
            status = 1
        mismatches = [key for key, ok in matrix.verdict_map().items()
                      if nocache.verdict_map()[key] != ok]
        if mismatches:
            print("verdicts differ across interpreter modes:")
            for mech, wl, seed in mismatches:
                print(f"  - {mech}/{wl}/seed={seed}")
            status = 1
        else:
            print("block-cache-off verdicts identical: OK")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
