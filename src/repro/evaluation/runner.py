"""Measurement drivers for the §6.2 evaluation.

The eight evaluated mechanisms (Table 4/5/6)::

    native, zpoline-default, zpoline-ultra, lazypoline,
    K23-default, K23-ultra, K23-ultra+, SUD-no-interposition, SUD

Microbenchmark (Table 5): the syscall-500 stress loop, measured
*differentially* — two runs with different iteration counts isolate the
steady-state per-call cost from startup (library loading, the K23 ptrace
stage, rewriting).

Macrobenchmarks (Table 6): server workloads driven by wrk/redis-benchmark
stand-ins.  Cycles per request are measured server-side after warmup;
throughput follows the saturation model

    capacity   = workers × efficiency × CLOCK_HZ / cycles_per_request
    throughput = min(capacity, client_limit)

where ``efficiency`` (multi-worker scaling) and ``client_limit``
(same-machine client saturation, §6.2.2) are workload-model constants
calibrated once against the paper's *native* rows; every interposed number
then emerges from the simulated cycles.  sqlite is runtime-oriented: the
relative metric is the native/interposed cycle ratio of the transaction
phase (again differential, startup excluded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cpu.cycles import CLOCK_HZ
from repro.interposers import REGISTRY
from repro.runapi import RunConfig, boot

# ============================================================ microbenchmark


def _batch_cycles(config: RunConfig) -> int:
    """Cycles of one batch run on a sink-free :func:`boot`: no bus sink
    attaches, so the event bus stays off on the measured path."""
    result = boot(config).execute()
    if not result.ok:
        params = "".join(f", {key}={value}" for key, value in config.params)
        raise RuntimeError(f"{config.workload} under {config.mechanism}, "
                           f"seed={config.seed}{params}: "
                           f"exit={result.exit_status}")
    return result.cycles


def micro_run_config(name: str, iterations: int, seed: int) -> RunConfig:
    """The stress run one Table 5 measurement boots."""
    return RunConfig(name, "stress", seed=seed, aslr=True,
                     max_steps=50_000_000,
                     params=(("iterations", iterations),))


def _micro_total_cycles(name: str, iterations: int, seed: int) -> int:
    return _batch_cycles(micro_run_config(name, iterations, seed))


def measure_micro_cycles(name: str, iterations_low: int = 300,
                         iterations_high: int = 1500,
                         seed: int = 20) -> float:
    """Steady-state cycles per syscall-500 invocation (differential)."""
    low = _micro_total_cycles(name, iterations_low, seed)
    high = _micro_total_cycles(name, iterations_high, seed)
    return (high - low) / (iterations_high - iterations_low)


def micro_overheads(mechanisms: Optional[Sequence[str]] = None,
                    seed: int = 20) -> Dict[str, float]:
    """Overhead factors relative to native (the Table 5 values); every
    registered mechanism but native when *mechanisms* is None."""
    if mechanisms is None:
        mechanisms = REGISTRY.names()[1:]
    native = measure_micro_cycles("native", seed=seed)
    return {name: measure_micro_cycles(name, seed=seed) / native
            for name in mechanisms}


# ============================================================ macrobenchmarks


@dataclass(frozen=True)
class MacroConfig:
    """One Table 6 row.

    Attributes:
        key: short identifier.
        label: row label as printed in the table.
        kind: ``"throughput"`` (req/s) or ``"runtime"`` (sqlite).
        workload / params: the :data:`repro.runapi.WORKLOADS` entry the
            row runs and its installer params.
        connections / requests: load-generation.
        workers: parallel server contexts for the capacity model.
        efficiency: multi-worker scaling factor (calibrated, see module
            docstring).
        client_limit: same-machine client saturation in req/s, or None for
            purely server-limited rows.
        paper_native: the paper's native measurement (for EXPERIMENTS.md).
        paper_relative: the paper's relative percentages per mechanism.
    """

    key: str
    label: str
    kind: str
    workload: str
    params: Tuple[Tuple[str, int], ...] = ()
    connections: int = 1
    requests: int = 240
    workers: int = 1
    efficiency: float = 1.0
    client_limit: Optional[float] = None
    paper_native: Optional[float] = None
    paper_relative: Optional[Dict[str, float]] = None


def _http_config(key, label, workload, workers, file_kb,
                 efficiency, paper_native, paper_relative) -> MacroConfig:
    return MacroConfig(
        key=key, label=label, kind="throughput", workload=workload,
        params=(("file_kb", file_kb), ("workers", workers)),
        connections=workers, requests=80 * max(1, min(workers, 4)),
        workers=workers, efficiency=efficiency, paper_native=paper_native,
        paper_relative=paper_relative)


MACRO_CONFIGS: List[MacroConfig] = [
    _http_config(
        "nginx-1w-0k", "nginx (1 worker, 0 KB)", "nginx", 1, 0, 1.0, 184762,
        {"zpoline-default": 99.05, "zpoline-ultra": 98.40,
         "lazypoline": 97.85, "K23-default": 97.94, "K23-ultra": 97.29,
         "K23-ultra+": 96.70, "SUD": 51.29}),
    _http_config(
        "nginx-1w-4k", "nginx (1 worker, 4 KB)", "nginx", 1, 4, 1.0, 139709,
        {"zpoline-default": 96.73, "zpoline-ultra": 96.14,
         "lazypoline": 96.04, "K23-default": 96.24, "K23-ultra": 95.89,
         "K23-ultra+": 95.76, "SUD": 45.95}),
    _http_config(
        "nginx-10w-0k", "nginx (10 workers, 0 KB)", "nginx", 10, 0, 1.0, 1214421,
        {"zpoline-default": 99.62, "zpoline-ultra": 99.34,
         "lazypoline": 98.79, "K23-default": 99.52, "K23-ultra": 98.39,
         "K23-ultra+": 97.83, "SUD": 53.93}),
    _http_config(
        "nginx-10w-4k", "nginx (10 workers, 4 KB)", "nginx", 10, 4, 1.0, 830426,
        {"zpoline-default": 98.83, "zpoline-ultra": 98.76,
         "lazypoline": 98.14, "K23-default": 98.59, "K23-ultra": 98.12,
         "K23-ultra+": 98.23, "SUD": 53.97}),
    _http_config(
        "lighttpd-1w-0k", "lighttpd (1 worker, 0 KB)", "lighttpd", 1, 0, 1.0, 189729,
        {"zpoline-default": 98.76, "zpoline-ultra": 99.48,
         "lazypoline": 98.23, "K23-default": 99.15, "K23-ultra": 97.89,
         "K23-ultra+": 97.50, "SUD": 61.25}),
    _http_config(
        "lighttpd-1w-4k", "lighttpd (1 worker, 4 KB)", "lighttpd", 1, 4, 1.0, 147927,
        {"zpoline-default": 99.28, "zpoline-ultra": 98.37,
         "lazypoline": 97.93, "K23-default": 98.56, "K23-ultra": 98.01,
         "K23-ultra+": 97.62, "SUD": 61.62}),
    _http_config(
        "lighttpd-10w-0k", "lighttpd (10 workers, 0 KB)", "lighttpd",
        10, 0, 1.0, 1444141,
        {"zpoline-default": 98.77, "zpoline-ultra": 98.60,
         "lazypoline": 98.18, "K23-default": 98.16, "K23-ultra": 98.36,
         "K23-ultra+": 97.69, "SUD": 59.83}),
    _http_config(
        "lighttpd-10w-4k", "lighttpd (10 workers, 4 KB)", "lighttpd",
        10, 4, 1.0, 976989,
        {"zpoline-default": 99.17, "zpoline-ultra": 98.98,
         "lazypoline": 98.67, "K23-default": 99.01, "K23-ultra": 98.65,
         "K23-ultra+": 98.62, "SUD": 65.06}),
    MacroConfig(
        key="redis-1t", label="redis (1 I/O thread)", kind="throughput",
        workload="redis", params=(("io_threads", 1),), connections=1,
        requests=200, workers=1, efficiency=1.0, client_limit=174613.0,
        paper_native=174613,
        paper_relative={"zpoline-default": 100.00, "zpoline-ultra": 99.93,
                        "lazypoline": 99.98, "K23-default": 100.21,
                        "K23-ultra": 100.17, "K23-ultra+": 99.90,
                        "SUD": 96.15}),
    MacroConfig(
        key="redis-6t", label="redis (6 I/O threads)", kind="throughput",
        workload="redis", params=(("io_threads", 6),), connections=6,
        requests=300, workers=6, efficiency=0.35, client_limit=398804.0,
        paper_native=398804,
        paper_relative={"zpoline-default": 99.94, "zpoline-ultra": 99.80,
                        "lazypoline": 99.80, "K23-default": 99.97,
                        "K23-ultra": 99.97, "K23-ultra+": 99.95,
                        "SUD": 35.75}),
    MacroConfig(
        key="sqlite", label="sqlite (speedtest1, size 800)", kind="runtime",
        workload="sqlite", paper_native=None,
        paper_relative={"zpoline-default": 98.12, "zpoline-ultra": 97.80,
                        "lazypoline": 97.31, "K23-default": 97.56,
                        "K23-ultra": 97.13, "K23-ultra+": 97.20,
                        "SUD": 55.90}),
]

MACRO_BY_KEY = {config.key: config for config in MACRO_CONFIGS}


def macro_run_config(config: MacroConfig, name: str, seed: int,
                     transactions: Optional[int] = None) -> RunConfig:
    """The run one Table 6 measurement boots: the row's server, or for a
    runtime row a batch of *transactions* (None: the workload's default)."""
    if config.kind == "runtime":
        length = () if transactions is None \
            else (("transactions", transactions),)
        return RunConfig(name, config.workload, seed=seed, aslr=True,
                         max_steps=20_000_000, params=config.params + length)
    return RunConfig(name, config.workload, seed=seed, aslr=True,
                     params=config.params, connections=config.connections)


def _measure_throughput_cpr(config: MacroConfig, name: str,
                            seed: int) -> float:
    prepared = boot(macro_run_config(config, name, seed))
    prepared.boot()  # master forks; workers reach accept
    source = prepared.traffic_source()
    source.warmup(2)
    result = source.drive(config.requests)
    if result.failures:
        raise RuntimeError(
            f"{config.key} ({config.workload}) under {name}, seed={seed}, "
            f"requests={config.requests}: {result.failures} failed requests")
    return result.cycles_per_request


def _measure_runtime_cycles(config: MacroConfig, name: str,
                            transactions: int, seed: int) -> int:
    return _batch_cycles(macro_run_config(config, name, seed, transactions))


def measure_macro(config: MacroConfig, name: str, seed: int = 30) -> Dict:
    """Measure one Table 6 cell; returns throughput/runtime figures."""
    if config.kind == "runtime":
        low = _measure_runtime_cycles(config, name, 20, seed)
        high = _measure_runtime_cycles(config, name, 120, seed)
        return {"cycles": high - low}
    cpr = _measure_throughput_cpr(config, name, seed)
    capacity = config.workers * config.efficiency * CLOCK_HZ / cpr
    throughput = min(capacity, config.client_limit) \
        if config.client_limit else capacity
    return {"cycles_per_request": cpr, "capacity": capacity,
            "throughput": throughput}


def macro_results(config: MacroConfig,
                  mechanisms: Optional[Sequence[str]] = None,
                  seed: int = 30) -> Dict[str, Dict]:
    """All mechanisms (every registered one when *mechanisms* is None) for
    one row, plus relative percentages vs native."""
    if mechanisms is None:
        mechanisms = REGISTRY.names()
    results = {name: measure_macro(config, name, seed=seed)
               for name in mechanisms}
    native = results["native"]
    for name, result in results.items():
        if config.kind == "runtime":
            result["relative_pct"] = 100.0 * native["cycles"] / result["cycles"]
        else:
            result["relative_pct"] = (100.0 * result["throughput"]
                                      / native["throughput"])
    return results
