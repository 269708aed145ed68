#!/usr/bin/env python
"""Interpreter throughput across the execution-engine tiers.

Standalone (not a pytest benchmark — wall-clock timing wants a quiet
process):

    PYTHONPATH=src python benchmarks/bench_interp_speed.py [--smoke]

Runs two workloads under every engine tier, timing host wall-clock per
simulated instruction:

- ``single-step``  — ``REPRO_NO_BLOCK_CACHE=1`` reference interpreter;
- ``block-cache``  — ``REPRO_NO_CHAIN=1``: one block per dispatch
  round-trip;
- ``chain``        — ``REPRO_NO_TRACE_JIT=1``: blocks linked across
  direct control flow, dispatcher skipped in steady state;
- ``trace-jit``    — full engine: hot chains compiled to ``exec``'d
  Python with one batched INSTRUCTION charge and the inline-cached
  single-page memory fast path.

Workloads:

- ``syscall-stress`` — the Table 5 microbenchmark loop (syscall-dense,
  short blocks, replay-heavy);
- ``sqlite speedtest1`` — the Table 6 runtime macro workload (longer
  straight-line runs, more memory traffic).

Each (workload, mode) cell reports best-of-N wall time, insns/sec, and
the final simulated cycle counter — which must be *identical* across all
four modes (every tier is a pure interpreter optimization; see
tests/cpu/test_engine.py and tests/properties/test_prop_lockstep.py).
A separate micro-bench times the address-space single-page fast path
with per-page generations against simulated global-generation eviction.
Results land in ``benchmarks/output/BENCH_interp.json``.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

OUTPUT = Path(__file__).resolve().parent / "output" / "BENCH_interp.json"

#: Seed-interpreter throughput on syscall-stress, measured on this host at
#: the PR 1 tip (commit 28346ac, before the dispatch-table refactor), with
#: the same best-of-3 protocol.  Kept for the acceptance-criterion ratio.
SEED_BASELINE_STRESS_IPS = 225_297

#: PR 2 block-cache throughput on syscall-stress (the recorded
#: BENCH_interp.json cell at the PR 2 tip).  The PR 7 engine gate is
#: >= 2x this number on the full trace-jit tier.
PR2_BASELINE_STRESS_IPS = 686_002

#: mode name -> escape hatch that selects it.  Each hatch disables its
#: tier *and* everything above it (EngineConfig enforces the hierarchy),
#: so setting exactly one variable pins exactly one tier.
MODES = {
    "single-step": "REPRO_NO_BLOCK_CACHE",
    "block-cache": "REPRO_NO_CHAIN",
    "chain": "REPRO_NO_TRACE_JIT",
    "trace-jit": None,
}

_HATCHES = tuple(var for var in MODES.values() if var)


def _run_stress(iterations):
    from repro.kernel.kernel import Kernel
    from repro.workloads.stress import STRESS_PATH, install_stress

    kernel = Kernel(seed=42)
    install_stress(kernel, iterations=iterations)
    process = kernel.spawn_process(STRESS_PATH)
    started = time.perf_counter()
    kernel.run_process(process, max_steps=40_000_000)
    elapsed = time.perf_counter() - started
    stats = kernel.interp_stats()
    return stats["instructions"], elapsed, kernel.cycles.cycles, stats


def _run_sqlite(transactions):
    from repro.kernel.kernel import Kernel
    from repro.workloads.sqlite import build_speedtest1, install_sqlite

    kernel = Kernel(seed=30)
    kernel.torn_window_probability = 0.0
    install_sqlite(kernel)
    build_speedtest1(transactions).register(kernel)
    process = kernel.spawn_process("/usr/bin/speedtest1")
    started = time.perf_counter()
    kernel.run_process(process, max_steps=20_000_000)
    elapsed = time.perf_counter() - started
    if not process.exited or process.exit_status != 0:
        raise RuntimeError(f"sqlite exited {process.exit_status}")
    stats = kernel.interp_stats()
    return stats["instructions"], elapsed, kernel.cycles.cycles, stats


def _measure(fn, arg, mode, rounds):
    saved = {var: os.environ.pop(var, None) for var in _HATCHES}
    hatch = MODES[mode]
    if hatch is not None:
        os.environ[hatch] = "1"
    try:
        best = None
        for _ in range(rounds):
            insns, elapsed, cycles, stats = fn(arg)
            if best is None or elapsed < best[1]:
                best = (insns, elapsed, cycles, stats)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    insns, elapsed, cycles, stats = best
    fetches = stats["icache_hits"] + stats["icache_misses"]
    units = stats["block_hits"] + stats["block_installs"]
    return {
        "instructions": insns,
        "wall_seconds": round(elapsed, 4),
        "insns_per_sec": round(insns / elapsed),
        "sim_cycles": cycles,
        "icache_hit_rate": round(stats["icache_hits"] / fetches, 4)
        if fetches else None,
        "block_hit_rate": round(stats["block_hits"] / units, 4)
        if units else None,
        "chain_follows": stats["chain_follows"],
        "superblock_hits": stats["superblock_hits"],
        "trace_hits": stats["trace_hits"],
        "guard_fails": stats["guard_fails"],
    }


def _bench_addrspace(reads, rounds):
    """Per-page-generation win: a working set of hot pages read between
    bursts of unrelated cold mmap traffic.  With per-page generations the
    hot pages' memoized entries survive the cold mappings; the contrast
    run clears the memo table after every mmap, which is exactly what a
    global generation counter used to do to every cached translation.
    Only the hot reads are timed — the cold mmaps cost the same either
    way and would dilute the ratio."""
    from repro.memory.address_space import AddressSpace
    from repro.memory.pages import PAGE_SIZE, Prot

    hot_pages = 64
    groups = max(1, reads // hot_pages)

    def timed(evict_on_mmap):
        space = AddressSpace()
        base = space.mmap(None, hot_pages * PAGE_SIZE,
                          Prot.READ | Prot.WRITE)
        read = space.read
        total = 0.0
        for _ in range(groups):
            space.mmap(None, PAGE_SIZE, Prot.READ, name="[cold]")
            if evict_on_mmap:
                space._fast.clear()
            started = time.perf_counter()
            for page in range(hot_pages):
                read(base + page * PAGE_SIZE + 64, 8)
            total += time.perf_counter() - started
        return total

    timed_reads = groups * hot_pages
    best_per_page = min(timed(False) for _ in range(rounds))
    best_global = min(timed(True) for _ in range(rounds))
    return {
        "reads": timed_reads,
        "hot_pages": hot_pages,
        "cold_mmaps": groups,
        "per_page_gen_ns_per_read": round(
            best_per_page / timed_reads * 1e9, 1),
        "global_gen_ns_per_read": round(
            best_global / timed_reads * 1e9, 1),
        "speedup_per_page_vs_global": round(best_global / best_per_page, 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller workloads, single round")
    parser.add_argument("--assert-within", type=float, default=None,
                        metavar="PCT",
                        help="fail unless syscall-stress trace-jit "
                             "throughput is within PCT%% of the recorded "
                             "BENCH_interp.json baseline (the disabled-"
                             "bus overhead budget)")
    args = parser.parse_args(argv)
    rounds = 1 if args.smoke else 3
    # The stress loop needs enough trips to amortize warm-up (the
    # hot-chain threshold) the way real table-6 runs do.
    stress_iters = 500 if args.smoke else 20_000
    sqlite_txns = 20 if args.smoke else 120

    baseline_ips = None
    if args.assert_within is not None:
        if not OUTPUT.exists():
            raise SystemExit(f"--assert-within: no baseline at {OUTPUT}")
        recorded = json.loads(OUTPUT.read_text())
        baseline_ips = (recorded["workloads"]["syscall-stress"]
                        ["trace-jit"]["insns_per_sec"])

    workloads = {
        "syscall-stress": (_run_stress, stress_iters),
        "sqlite-speedtest1": (_run_sqlite, sqlite_txns),
    }
    report = {
        "protocol": f"best of {rounds} rounds, host wall clock, "
                    "4-tier engine matrix",
        "seed_baseline": {
            "workload": "syscall-stress",
            "insns_per_sec": SEED_BASELINE_STRESS_IPS,
            "commit": "28346ac (PR 1 tip, pre-dispatch-table interpreter)",
        },
        "pr2_baseline": {
            "workload": "syscall-stress",
            "insns_per_sec": PR2_BASELINE_STRESS_IPS,
            "note": "PR 2 block-cache tip; the engine gate is >= 2x this",
        },
        "workloads": {},
    }
    for name, (fn, arg) in workloads.items():
        cells = {}
        for mode in MODES:
            print(f"{name} [{mode}] ...", file=sys.stderr)
            cells[mode] = _measure(fn, arg, mode, rounds)
        sim_cycles = {mode: cells[mode]["sim_cycles"] for mode in MODES}
        if len(set(sim_cycles.values())) != 1:
            raise SystemExit(
                f"{name}: sim cycles diverged across tiers: {sim_cycles}")
        full = cells["trace-jit"]["insns_per_sec"]
        cells["speedup_trace_jit_vs_single_step"] = round(
            full / cells["single-step"]["insns_per_sec"], 3)
        cells["speedup_trace_jit_vs_block_cache"] = round(
            full / cells["block-cache"]["insns_per_sec"], 3)
        if name == "syscall-stress":
            cells["speedup_trace_jit_vs_seed"] = round(
                full / SEED_BASELINE_STRESS_IPS, 3)
            cells["speedup_trace_jit_vs_pr2"] = round(
                full / PR2_BASELINE_STRESS_IPS, 3)
        report["workloads"][name] = cells

    print("addrspace fast path ...", file=sys.stderr)
    report["addrspace_fast_path"] = _bench_addrspace(
        reads=5_000 if args.smoke else 50_000, rounds=rounds)

    if not args.smoke:
        # Smoke numbers are for gating, not for the record: only the full
        # protocol may refresh the baseline artifact.
        OUTPUT.parent.mkdir(parents=True, exist_ok=True)
        OUTPUT.write_text(json.dumps(report, indent=2, sort_keys=True)
                          + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))

    if baseline_ips is not None:
        if args.smoke:
            # Smoke-sized cells are not comparable to the recorded
            # baseline (startup cost dominates short runs): re-measure
            # the budget cell under the baseline's own protocol.
            print("budget cell [full protocol] ...", file=sys.stderr)
            cell = _measure(_run_stress, 20_000, "trace-jit", 3)
        else:
            cell = report["workloads"]["syscall-stress"]["trace-jit"]
        measured = cell["insns_per_sec"]
        floor = baseline_ips * (1 - args.assert_within / 100.0)
        verdict = "OK" if measured >= floor else "REGRESSED"
        print(f"budget: {measured:,} insns/sec vs baseline "
              f"{baseline_ips:,} (floor {floor:,.0f}, "
              f"-{args.assert_within}%): {verdict}", file=sys.stderr)
        if measured < floor:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
