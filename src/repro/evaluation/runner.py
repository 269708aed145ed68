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

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional

from repro.core import OfflinePhase
from repro.core.offline import import_logs
from repro.cpu.cycles import CLOCK_HZ
from repro.interposers import REGISTRY
from repro.kernel import Kernel
from repro.workloads.clients import redis_benchmark, wrk
from repro.workloads.lighttpd import LIGHTTPD_PORT, install_lighttpd
from repro.workloads.nginx import NGINX_PORT, install_nginx
from repro.workloads.redis import REDIS_PORT, install_redis
from repro.workloads.sqlite import build_speedtest1, install_sqlite
from repro.workloads.stress import build_stress, STRESS_PATH

#: Evaluation order, matching Table 5 — derived from the registry.
#: Internal only; the public way to enumerate mechanisms is
#: ``repro.interposers.registry.REGISTRY.names()``.  ``MECHANISMS`` and
#: ``make_interposer`` remain importable from this module through the
#: deprecation shim (module ``__getattr__``) below.
_MECHANISMS = REGISTRY.names()


def _make_interposer(name: str, kernel: Kernel):
    """Instantiate (and install) one evaluated mechanism by registry name."""
    return REGISTRY.create(name, kernel)


def needs_offline(name: str) -> bool:
    return REGISTRY.needs_offline(name)


#: Deprecated module attributes → (replacement hint, value factory).
_DEPRECATED = {
    "MECHANISMS": ("repro.api.REGISTRY.names()",
                   lambda: _MECHANISMS),
    "make_interposer": ("repro.api.REGISTRY.create(name, kernel)",
                        lambda: _make_interposer),
}

#: Attributes already warned about — each shim warns once per process, so
#: a hot loop over a legacy import doesn't flood stderr.
_WARNED: set = set()


def __getattr__(name: str):
    """Deprecation shim (PEP 562): importing ``MECHANISMS`` or
    ``make_interposer`` from this module still works but warns (once per
    process per attribute) — :mod:`repro.api` is the supported surface."""
    entry = _DEPRECATED.get(name)
    if entry is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    hint, factory = entry
    if name not in _WARNED:
        _WARNED.add(name)
        import warnings

        warnings.warn(f"importing {name!r} from repro.evaluation.runner is "
                      f"deprecated; use {hint}", DeprecationWarning,
                      stacklevel=2)
    return factory()


# ============================================================ microbenchmark


@functools.lru_cache(maxsize=None)
def stress_offline_logs(seed: int) -> Mapping[str, str]:
    """K23 offline logs of the syscall-500 stress loop, logged on a kernel
    booted with *seed* (shared by Table 5 and the cycle decomposition).

    Memoised per process: the result is a pure function of *seed*, so
    every caller gets the same read-only mapping."""
    kernel = Kernel(seed=seed)
    build_stress(16).register(kernel)
    offline = OfflinePhase(kernel)
    offline.run(STRESS_PATH)
    return MappingProxyType(offline.export())


def _micro_total_cycles(name: str, iterations: int, seed: int) -> int:
    kernel = Kernel(seed=seed)
    kernel.torn_window_probability = 0.0  # measure the surviving fast path
    build_stress(iterations).register(kernel)
    if needs_offline(name):
        import_logs(kernel, stress_offline_logs(seed + 1000))
    _make_interposer(name, kernel)
    process = kernel.spawn_process(STRESS_PATH)
    before = kernel.cycles.cycles
    kernel.run_process(process, max_steps=50_000_000)
    if not process.exited or process.exit_status != 0:
        raise RuntimeError(
            f"micro run failed under {name}: exit={process.exit_status}")
    return kernel.cycles.cycles - before


def measure_micro_cycles(name: str, iterations_low: int = 300,
                         iterations_high: int = 1500,
                         seed: int = 20) -> float:
    """Steady-state cycles per syscall-500 invocation (differential)."""
    low = _micro_total_cycles(name, iterations_low, seed)
    high = _micro_total_cycles(name, iterations_high, seed)
    return (high - low) / (iterations_high - iterations_low)


def micro_overheads(mechanisms=_MECHANISMS[1:], seed: int = 20
                    ) -> Dict[str, float]:
    """Overhead factors relative to native (the Table 5 values)."""
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
        installer: registers the workload; returns the binary path.
        port / client_factory / connections / requests: load-generation.
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
    installer: Callable[[Kernel], str]
    port: int = 0
    client_factory: Optional[Callable] = None
    connections: int = 1
    requests: int = 240
    workers: int = 1
    efficiency: float = 1.0
    client_limit: Optional[float] = None
    paper_native: Optional[float] = None
    paper_relative: Optional[Dict[str, float]] = None


def _http_config(key, label, installer_fn, port, workers, file_kb,
                 efficiency, paper_native, paper_relative) -> MacroConfig:
    return MacroConfig(
        key=key, label=label, kind="throughput",
        installer=lambda kernel: installer_fn(kernel, workers, file_kb),
        port=port, client_factory=wrk, connections=workers,
        requests=80 * max(1, min(workers, 4)), workers=workers,
        efficiency=efficiency, paper_native=paper_native,
        paper_relative=paper_relative)


MACRO_CONFIGS: List[MacroConfig] = [
    _http_config(
        "nginx-1w-0k", "nginx (1 worker, 0 KB)", install_nginx, NGINX_PORT,
        1, 0, 1.0, 184762,
        {"zpoline-default": 99.05, "zpoline-ultra": 98.40,
         "lazypoline": 97.85, "K23-default": 97.94, "K23-ultra": 97.29,
         "K23-ultra+": 96.70, "SUD": 51.29}),
    _http_config(
        "nginx-1w-4k", "nginx (1 worker, 4 KB)", install_nginx, NGINX_PORT,
        1, 4, 1.0, 139709,
        {"zpoline-default": 96.73, "zpoline-ultra": 96.14,
         "lazypoline": 96.04, "K23-default": 96.24, "K23-ultra": 95.89,
         "K23-ultra+": 95.76, "SUD": 45.95}),
    _http_config(
        "nginx-10w-0k", "nginx (10 workers, 0 KB)", install_nginx,
        NGINX_PORT, 10, 0, 1.0, 1214421,
        {"zpoline-default": 99.62, "zpoline-ultra": 99.34,
         "lazypoline": 98.79, "K23-default": 99.52, "K23-ultra": 98.39,
         "K23-ultra+": 97.83, "SUD": 53.93}),
    _http_config(
        "nginx-10w-4k", "nginx (10 workers, 4 KB)", install_nginx,
        NGINX_PORT, 10, 4, 1.0, 830426,
        {"zpoline-default": 98.83, "zpoline-ultra": 98.76,
         "lazypoline": 98.14, "K23-default": 98.59, "K23-ultra": 98.12,
         "K23-ultra+": 98.23, "SUD": 53.97}),
    _http_config(
        "lighttpd-1w-0k", "lighttpd (1 worker, 0 KB)", install_lighttpd,
        LIGHTTPD_PORT, 1, 0, 1.0, 189729,
        {"zpoline-default": 98.76, "zpoline-ultra": 99.48,
         "lazypoline": 98.23, "K23-default": 99.15, "K23-ultra": 97.89,
         "K23-ultra+": 97.50, "SUD": 61.25}),
    _http_config(
        "lighttpd-1w-4k", "lighttpd (1 worker, 4 KB)", install_lighttpd,
        LIGHTTPD_PORT, 1, 4, 1.0, 147927,
        {"zpoline-default": 99.28, "zpoline-ultra": 98.37,
         "lazypoline": 97.93, "K23-default": 98.56, "K23-ultra": 98.01,
         "K23-ultra+": 97.62, "SUD": 61.62}),
    _http_config(
        "lighttpd-10w-0k", "lighttpd (10 workers, 0 KB)", install_lighttpd,
        LIGHTTPD_PORT, 10, 0, 1.0, 1444141,
        {"zpoline-default": 98.77, "zpoline-ultra": 98.60,
         "lazypoline": 98.18, "K23-default": 98.16, "K23-ultra": 98.36,
         "K23-ultra+": 97.69, "SUD": 59.83}),
    _http_config(
        "lighttpd-10w-4k", "lighttpd (10 workers, 4 KB)", install_lighttpd,
        LIGHTTPD_PORT, 10, 4, 1.0, 976989,
        {"zpoline-default": 99.17, "zpoline-ultra": 98.98,
         "lazypoline": 98.67, "K23-default": 99.01, "K23-ultra": 98.65,
         "K23-ultra+": 98.62, "SUD": 65.06}),
    MacroConfig(
        key="redis-1t", label="redis (1 I/O thread)", kind="throughput",
        installer=lambda kernel: install_redis(kernel, 1),
        port=REDIS_PORT, client_factory=redis_benchmark, connections=1,
        requests=200, workers=1, efficiency=1.0, client_limit=174613.0,
        paper_native=174613,
        paper_relative={"zpoline-default": 100.00, "zpoline-ultra": 99.93,
                        "lazypoline": 99.98, "K23-default": 100.21,
                        "K23-ultra": 100.17, "K23-ultra+": 99.90,
                        "SUD": 96.15}),
    MacroConfig(
        key="redis-6t", label="redis (6 I/O threads)", kind="throughput",
        installer=lambda kernel: install_redis(kernel, 6),
        port=REDIS_PORT, client_factory=redis_benchmark, connections=6,
        requests=300, workers=6, efficiency=0.35, client_limit=398804.0,
        paper_native=398804,
        paper_relative={"zpoline-default": 99.94, "zpoline-ultra": 99.80,
                        "lazypoline": 99.80, "K23-default": 99.97,
                        "K23-ultra": 99.97, "K23-ultra+": 99.95,
                        "SUD": 35.75}),
    MacroConfig(
        key="sqlite", label="sqlite (speedtest1, size 800)", kind="runtime",
        installer=install_sqlite, paper_native=None,
        paper_relative={"zpoline-default": 98.12, "zpoline-ultra": 97.80,
                        "lazypoline": 97.31, "K23-default": 97.56,
                        "K23-ultra": 97.13, "K23-ultra+": 97.20,
                        "SUD": 55.90}),
]

MACRO_BY_KEY = {config.key: config for config in MACRO_CONFIGS}


@functools.lru_cache(maxsize=None)
def macro_offline_logs(key: str, seed: int) -> Mapping[str, str]:
    """K23 offline logs for the Table 6 row *key*, logged on a kernel
    booted with *seed*.

    Memoised per process like :func:`stress_offline_logs`; the row's
    :class:`MacroConfig` is a module constant, so (key, seed) is every
    input the recipe reads."""
    config = MACRO_BY_KEY[key]
    kernel = Kernel(seed=seed)
    path = config.installer(kernel)
    offline = OfflinePhase(kernel)
    if config.kind == "runtime":
        offline.run(path, max_steps=20_000_000)
    else:
        def driver(kern, proc):
            kern.run(max_steps=600_000)
            generator = config.client_factory(kern, config.port,
                                              config.connections)
            generator.drive(4 * config.connections)
            generator.close()

        offline.run(path, driver=driver, max_steps=20_000_000)
    return MappingProxyType(offline.export())


def _measure_throughput_cpr(config: MacroConfig, name: str,
                            seed: int) -> float:
    kernel = Kernel(seed=seed)
    kernel.torn_window_probability = 0.0  # measure the surviving fast path
    path = config.installer(kernel)
    if needs_offline(name):
        import_logs(kernel, macro_offline_logs(config.key, seed + 500))
    _make_interposer(name, kernel)
    kernel.spawn_process(path)
    kernel.run(max_steps=2_000_000)  # master forks; workers reach accept
    generator = config.client_factory(kernel, config.port,
                                      config.connections)
    generator.warmup(2)
    result = generator.drive(config.requests)
    if result.failures:
        raise RuntimeError(
            f"{config.key} under {name}: {result.failures} failed requests")
    return result.cycles_per_request


def _measure_runtime_cycles(name: str, transactions: int, seed: int) -> int:
    kernel = Kernel(seed=seed)
    kernel.torn_window_probability = 0.0  # measure the surviving fast path
    install_sqlite(kernel)
    build_speedtest1(transactions).register(kernel)
    if needs_offline(name):
        import_logs(kernel, macro_offline_logs("sqlite", seed + 500))
    _make_interposer(name, kernel)
    process = kernel.spawn_process("/usr/bin/speedtest1")
    before = kernel.cycles.cycles
    kernel.run_process(process, max_steps=20_000_000)
    if not process.exited or process.exit_status != 0:
        raise RuntimeError(f"sqlite under {name}: exit={process.exit_status}")
    return kernel.cycles.cycles - before


def measure_macro(config: MacroConfig, name: str, seed: int = 30) -> Dict:
    """Measure one Table 6 cell; returns throughput/runtime figures."""
    if config.kind == "runtime":
        low = _measure_runtime_cycles(name, 20, seed)
        high = _measure_runtime_cycles(name, 120, seed)
        return {"cycles": high - low}
    cpr = _measure_throughput_cpr(config, name, seed)
    capacity = config.workers * config.efficiency * CLOCK_HZ / cpr
    throughput = min(capacity, config.client_limit) \
        if config.client_limit else capacity
    return {"cycles_per_request": cpr, "capacity": capacity,
            "throughput": throughput}


def macro_results(config: MacroConfig, mechanisms=_MECHANISMS,
                  seed: int = 30) -> Dict[str, Dict]:
    """All mechanisms for one row, plus relative percentages vs native."""
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
