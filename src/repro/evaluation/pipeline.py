"""Parallel, memoized evaluation pipeline for the §6.2 matrix.

The Table 4/5/6 evaluation is a mechanism × workload matrix in which every
cell builds its own :class:`~repro.kernel.Kernel` from a fixed seed — cells
share nothing, so the matrix is embarrassingly parallel and, because the
simulator is deterministic, soundly memoizable.  This module turns the
previously serial, recompute-everything harness into a pipeline:

1. **enumerate** — every cell becomes a picklable :class:`ScenarioSpec`
   (strings and ints only; workers re-resolve configs and the mechanism
   registry on their side);
2. **execute** — cells are dealt round-robin into ``jobs`` *deterministic
   shards* (cell *i* → shard ``i % jobs``, a pure function of the
   enumeration order) and each shard runs serially inside one
   ``multiprocessing`` worker: one submission round-trip per shard
   instead of per cell, with captured tracebacks and a per-shard wall
   budget.  Pool-less environments (restricted sandboxes) and mid-run
   pool breakage degrade to in-process serial execution; a hard worker
   crash fails only the crashing shard's cells, and every other shard is
   salvaged or re-run serially.  Before the pool forks, the parent runs
   once each K23 offline phase and each load-test calibration that more
   than one shard needs, and the workers inherit its memo;
3. **memoize** — each cell is looked up in / written to the
   content-addressed :class:`~repro.evaluation.cache.ResultCache`, keyed on
   the mechanism, the workload, the cycle-model constants the mechanism
   depends on, and one digest of the whole package's code (see
   :mod:`repro.evaluation.cache`);
4. **merge** — results are folded back into the exact dict shapes the
   existing table renderers consume, in registry/config order, so pipeline
   output is byte-identical to a serial run regardless of completion order.

The benchmarks, the experiments CLI, and ``python -m repro.tools.evalrun``
all run on this substrate.
"""

from __future__ import annotations

import functools
import time
import traceback
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.evaluation.cache import MISS, NullCache, ResultCache, cell_key

_NULL_CACHE = NullCache()

#: Wall-clock budget per cell before it is marked failed (seconds).
DEFAULT_CELL_TIMEOUT = 600.0

#: The reduced matrix used by ``--smoke`` runs and tier-1 tests: two
#: mechanisms, tiny iteration counts, one client-limited macro row.
SMOKE_MECHANISMS: Tuple[str, ...] = ("native", "zpoline-default")
SMOKE_MICRO_ITERATIONS: Tuple[int, int] = (60, 240)
SMOKE_MACRO_KEYS: Tuple[str, ...] = ("redis-1t",)


# ------------------------------------------------------------------ the cells


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the evaluation matrix — picklable by construction.

    Attributes:
        kind: ``"micro"`` (Table 5), ``"macro"`` (Table 6),
            ``"shadow"`` (a dark-launch cell — the primary mechanism is
            ``mechanism``, the candidate rides in ``params``), or
            ``"loadtest"`` (one traffic-engine shard — the canonical
            TrafficConfig JSON and shard coordinates ride in
            ``params``).
        mechanism: registry name (``"K23-ultra"``, ...).
        workload: ``"syscall-stress"`` for micro cells, a
            :data:`~repro.evaluation.runner.MACRO_BY_KEY` row key for
            macro cells, a :data:`repro.runapi.WORKLOADS` key for
            shadow cells.
        seed: base RNG seed the cell's kernels derive from.
        params: extra parameters as a sorted tuple of pairs (micro
            iteration counts; shadow mechanism/budget/requests),
            keeping the spec hashable.
    """

    kind: str
    mechanism: str
    workload: str
    seed: int
    params: Tuple[Tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.workload}:{self.mechanism}"

    def cache_key(self) -> str:
        return cell_key(self.kind, self.mechanism, self.workload,
                        self.seed, self.params)


@dataclass
class CellResult:
    """Outcome of one cell: a JSON-safe value or a captured traceback."""

    spec: ScenarioSpec
    value: Optional[dict] = None
    error: Optional[str] = None
    source: str = "serial"  # "cache" | "parallel" | "serial"
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class PipelineStats:
    """Per-run accounting — the hit/miss report the CLI prints."""

    hits: int = 0
    misses: int = 0
    failures: int = 0
    parallel_cells: int = 0
    serial_cells: int = 0
    mode: str = "serial"
    jobs: int = 1
    duration: float = 0.0
    fallback_reason: Optional[str] = None

    @property
    def cells(self) -> int:
        return self.hits + self.misses

    def summary(self) -> str:
        text = (f"{self.cells} cells: {self.hits} cache hits, "
                f"{self.misses} misses ({self.mode}"
                + (f", {self.jobs} jobs" if self.mode == "parallel" else "")
                + f"), {self.failures} failed, {self.duration:.1f}s")
        if self.fallback_reason:
            text += f" [pool fallback: {self.fallback_reason}]"
        return text


@dataclass
class PipelineRun:
    """Everything one :func:`run_cells` invocation produced."""

    results: Dict[ScenarioSpec, CellResult]
    stats: PipelineStats

    def value(self, spec: ScenarioSpec) -> dict:
        result = self.results[spec]
        if not result.ok:
            raise CellFailure(result)
        return result.value

    def failures(self) -> List[CellResult]:
        return [r for r in self.results.values() if not r.ok]


class CellFailure(RuntimeError):
    """A consumed cell had failed; carries the worker traceback."""

    def __init__(self, result: CellResult):
        super().__init__(
            f"evaluation cell {result.spec.label} (seed {result.spec.seed}) "
            f"failed:\n{result.error}")
        self.result = result


# ------------------------------------------------------------- enumeration


def micro_specs(mechanisms: Optional[Sequence[str]] = None, seed: int = 20,
                iterations_low: int = 300, iterations_high: int = 1500
                ) -> List[ScenarioSpec]:
    """Table 5 cells (native first — the normalization column)."""
    from repro.interposers.registry import REGISTRY

    names = tuple(mechanisms) if mechanisms is not None else REGISTRY.names()
    params = (("iterations_high", iterations_high),
              ("iterations_low", iterations_low))
    return [ScenarioSpec("micro", name, "syscall-stress", seed, params)
            for name in names]


def macro_specs(keys: Optional[Sequence[str]] = None,
                mechanisms: Optional[Sequence[str]] = None,
                seed: int = 30) -> List[ScenarioSpec]:
    """Table 6 cells, row-major in config order."""
    from repro.evaluation.runner import MACRO_CONFIGS
    from repro.interposers.registry import REGISTRY

    names = tuple(mechanisms) if mechanisms is not None else REGISTRY.names()
    specs = []
    for config in MACRO_CONFIGS:
        if keys is not None and config.key not in keys:
            continue
        for name in names:
            specs.append(ScenarioSpec("macro", name, config.key, seed))
    return specs


def shadow_specs(primary: str, shadows: Sequence[str], workload: str,
                 seed: int = 40, budget: int = 0,
                 requests: int = 24) -> List[ScenarioSpec]:
    """Dark-launch cells: one per candidate *shadow* mechanism.

    Each cell runs :func:`repro.shadow.run_shadow` with *primary*
    serving and the candidate mirroring; the cell value is the
    :meth:`~repro.shadow.ShadowReport.to_dict` document (verdict,
    divergence count, latency deltas), memoized like any other cell.
    """
    base = (("budget", budget), ("requests", requests))
    return [ScenarioSpec("shadow", primary, workload, seed,
                         tuple(sorted(base + (("shadow", name),))))
            for name in shadows]


def full_matrix_specs(mechanisms: Optional[Sequence[str]] = None,
                      macro_keys: Optional[Sequence[str]] = None,
                      smoke: bool = False) -> List[ScenarioSpec]:
    """The whole Table 5 + Table 6 matrix (reduced when *smoke*)."""
    if smoke:
        mechanisms = mechanisms or SMOKE_MECHANISMS
        macro_keys = macro_keys or SMOKE_MACRO_KEYS
        low, high = SMOKE_MICRO_ITERATIONS
        return (micro_specs(mechanisms, iterations_low=low,
                            iterations_high=high)
                + macro_specs(macro_keys, mechanisms))
    return micro_specs(mechanisms) + macro_specs(macro_keys, mechanisms)


# --------------------------------------------------------------- execution


def _macro_config(spec: ScenarioSpec):
    from repro.evaluation.runner import MACRO_BY_KEY

    config = MACRO_BY_KEY.get(spec.workload)
    if config is None:
        raise ValueError(
            f"unknown macro workload {spec.workload!r}; "
            f"rows: {', '.join(MACRO_BY_KEY)}")
    return config


def _shadow_config(spec: ScenarioSpec):
    from repro.shadow import ShadowConfig

    params = dict(spec.params)
    return ShadowConfig(
        primary=spec.mechanism,
        shadow=str(params["shadow"]),
        workload=spec.workload,
        seed=spec.seed,
        budget=int(params.get("budget", 0)),
        requests=int(params.get("requests", 24)))


def _loadtest_traffic(spec: ScenarioSpec) -> dict:
    import json

    return json.loads(str(dict(spec.params)["traffic"]))


def execute_cell(spec: ScenarioSpec) -> dict:
    """Run one cell in this process; returns its JSON-safe measurement."""
    from repro.evaluation.runner import measure_macro, measure_micro_cycles

    if spec.kind == "micro":
        params = dict(spec.params)
        value = measure_micro_cycles(
            spec.mechanism,
            iterations_low=params["iterations_low"],
            iterations_high=params["iterations_high"],
            seed=spec.seed)
        return {"cycles_per_call": value}
    if spec.kind == "macro":
        return measure_macro(_macro_config(spec), spec.mechanism,
                             seed=spec.seed)
    if spec.kind == "shadow":
        from repro.shadow import run_shadow

        return run_shadow(_shadow_config(spec)).to_dict()
    if spec.kind == "loadtest":
        from repro.traffic.engine import run_shard

        params = dict(spec.params)
        return run_shard(spec.mechanism, spec.workload,
                         _loadtest_traffic(spec), spec.seed,
                         int(params["shard"]), int(params["shards"]))
    raise ValueError(f"unknown cell kind {spec.kind!r}")


def _cell_run_configs(spec: ScenarioSpec) -> List:
    """The ``RunConfig`` of every kernel *spec* boots, built by the same
    helpers its measurement uses (runs that differ only in run length
    collapse to one)."""
    if spec.kind == "micro":
        from repro.evaluation.runner import micro_run_config

        return [micro_run_config(spec.mechanism,
                                 dict(spec.params)["iterations_low"],
                                 spec.seed)]
    if spec.kind == "macro":
        from repro.evaluation.runner import macro_run_config

        return [macro_run_config(_macro_config(spec), spec.mechanism,
                                 spec.seed)]
    if spec.kind == "shadow":
        from repro.shadow.harness import side_configs

        return list(side_configs(_shadow_config(spec)))
    if spec.kind == "loadtest":
        from repro.traffic.config import TrafficConfig
        from repro.traffic.fleet import server_run_config

        return [server_run_config(
            spec.mechanism, spec.workload,
            TrafficConfig.from_dict(_loadtest_traffic(spec)), spec.seed)]
    raise ValueError(f"unknown cell kind {spec.kind!r}")


def cell_offline_keys(spec: ScenarioSpec) -> Set[Tuple[str, Tuple]]:
    """The :func:`repro.runapi.offline_key` of each K23 offline log the
    kernels of *spec* import: one per booted run whose mechanism needs an
    offline phase, exactly as :func:`repro.runapi.boot` decides."""
    from repro.interposers.registry import REGISTRY
    from repro.runapi import offline_key

    return {offline_key(config.workload, config.params)
            for config in _cell_run_configs(spec)
            if REGISTRY.needs_offline(config.mechanism)}


def _cell_shared_steps(spec: ScenarioSpec
                       ) -> Dict[Tuple, Callable[[], object]]:
    """The memoised set-up steps the kernels of *spec* run, by memo key:
    each K23 offline phase it imports and, for a load-test shard, the
    mechanism's service-table calibration."""
    from repro.runapi import offline_logs

    steps: Dict[Tuple, Callable[[], object]] = {
        ("offline",) + key: functools.partial(offline_logs, *key)
        for key in cell_offline_keys(spec)}
    if spec.kind == "loadtest":
        from repro.traffic.config import TrafficConfig
        from repro.traffic.fleet import (calibrate_service_table,
                                         calibration_key)

        args = (spec.mechanism, spec.workload,
                TrafficConfig.from_dict(_loadtest_traffic(spec)), spec.seed)
        steps[("calibration",) + calibration_key(*args)] = \
            functools.partial(calibrate_service_table, *args)
    return steps


def _prewarm_shared(shards: Sequence[Sequence[ScenarioSpec]]) -> None:
    """Run, in this process, each memoised set-up step (a K23 offline
    phase or a load test's calibration) that more than one of *shards*
    needs, so that the forked workers inherit the memo (and the program
    images its kernels built) instead of each recomputing it.  A step
    only one shard needs stays in that shard's worker, where it runs in
    parallel with the others.

    A cell whose steps cannot be derived, or whose step raises, is left
    to fail in its own run, where its error names it."""
    owners: Dict[Tuple, Set[int]] = {}
    steps: Dict[Tuple, Callable[[], object]] = {}
    for index, shard in enumerate(shards):
        for spec in shard:
            try:
                cell_steps = _cell_shared_steps(spec)
            except Exception:
                continue
            for key, step in cell_steps.items():
                owners.setdefault(key, set()).add(index)
                steps.setdefault(key, step)
    for key, step in steps.items():
        if len(owners[key]) > 1:
            try:
                step()
            except Exception:
                pass


def _pool_worker(spec: ScenarioSpec) -> Tuple[ScenarioSpec, Optional[dict],
                                              Optional[str], float]:
    """Run one cell: never raises, returns a traceback string instead so
    one bad cell cannot poison the pool protocol."""
    started = time.monotonic()
    try:
        value = execute_cell(spec)
        return spec, value, None, time.monotonic() - started
    except BaseException:  # noqa: BLE001 — captured verbatim for the report
        return spec, None, traceback.format_exc(), time.monotonic() - started


def _shard_worker(shard: List[ScenarioSpec]
                  ) -> List[Tuple[ScenarioSpec, Optional[dict],
                                  Optional[str], float]]:
    """Top-level pool entry point: one worker executes one shard serially."""
    return [_pool_worker(spec) for spec in shard]


def shard_specs(specs: Sequence[ScenarioSpec],
                jobs: int) -> List[List[ScenarioSpec]]:
    """Deal *specs* round-robin into at most *jobs* shards.

    The assignment is a pure function of enumeration order and *jobs* —
    no timing, no hashing — so repeated runs dispatch identical shards,
    and interleaving (rather than chunking) keeps expensive neighbouring
    cells (e.g. one macro row across all mechanisms) off the same worker.
    Merge order is canonical regardless (see :func:`run_cells`), so the
    shard count can never perturb an artifact byte.
    """
    if jobs <= 1:
        return [list(specs)] if specs else []
    shards = [list(specs[index::jobs]) for index in range(jobs)]
    return [shard for shard in shards if shard]


def _run_serial(specs: Sequence[ScenarioSpec],
                results: Dict[ScenarioSpec, CellResult],
                stats: PipelineStats, cache: ResultCache) -> None:
    for spec in specs:
        started = time.monotonic()
        try:
            value = execute_cell(spec)
        except Exception:
            results[spec] = CellResult(spec, error=traceback.format_exc(),
                                       source="serial",
                                       duration=time.monotonic() - started)
            stats.failures += 1
        else:
            results[spec] = CellResult(spec, value=value, source="serial",
                                       duration=time.monotonic() - started)
            _cache_store(cache, spec, value)
        stats.serial_cells += 1


def _cache_store(cache: ResultCache, spec: ScenarioSpec, value: dict) -> None:
    try:
        cache.put(spec.cache_key(), value, meta={"label": spec.label})
    except Exception:
        pass  # an uncacheable cell is still a measured cell


def _run_parallel(specs: Sequence[ScenarioSpec],
                  results: Dict[ScenarioSpec, CellResult],
                  stats: PipelineStats, cache: ResultCache,
                  jobs: int, timeout: float) -> None:
    """Sharded pool execution; raises :class:`_PoolUnavailable` only
    before any shard has been dispatched (the caller then reruns
    everything serially)."""
    import concurrent.futures as futures_mod
    import multiprocessing

    try:
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # pragma: no cover - ancient stdlib layouts
        BrokenProcessPool = futures_mod.BrokenExecutor  # type: ignore

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        context = multiprocessing.get_context()
    shards = shard_specs(list(specs), jobs)
    if context.get_start_method() == "fork":
        _prewarm_shared(shards)
    try:
        executor = futures_mod.ProcessPoolExecutor(
            max_workers=len(shards), mp_context=context)
        pending = [(shard, executor.submit(_shard_worker, shard))
                   for shard in shards]
    except Exception as exc:
        raise _PoolUnavailable(f"{type(exc).__name__}: {exc}") from exc

    retry_serially: List[ScenarioSpec] = []
    try:
        for shard, future in pending:
            # The per-cell budget aggregates per shard: a worker executes
            # its shard serially, so individual cells are not separately
            # interruptible.
            budget = timeout * len(shard)
            try:
                outcomes = future.result(timeout=budget)
            except futures_mod.TimeoutError:
                future.cancel()
                for spec in shard:
                    results[spec] = CellResult(
                        spec, error=f"shard timed out after {budget:.0f}s "
                        f"({len(shard)} cells)",
                        source="parallel", duration=timeout)
                    stats.failures += 1
                    stats.parallel_cells += 1
            except BrokenProcessPool:
                # A worker died abruptly (signal / OOM) somewhere in this
                # shard; its in-worker results are gone.  Blame the whole
                # shard, salvage every other shard's finished results, and
                # re-run the rest serially.
                crash = "pool worker crashed:\n" + traceback.format_exc()
                for spec in shard:
                    results[spec] = CellResult(spec, error=crash,
                                               source="parallel")
                    stats.failures += 1
                    stats.parallel_cells += 1
                for other, future_ in pending:
                    if other is shard or other[0] in results:
                        continue
                    try:
                        outcomes = future_.result(timeout=0)
                    except Exception:
                        retry_serially.extend(other)
                    else:
                        for spec, value, error, duration in outcomes:
                            _record_pool_result(results, stats, cache, spec,
                                                value, error, duration)
                break
            else:
                for spec, value, error, duration in outcomes:
                    _record_pool_result(results, stats, cache, spec, value,
                                        error, duration)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    if retry_serially:
        _run_serial(retry_serially, results, stats, cache)


def _record_pool_result(results, stats, cache, spec, value, error,
                        duration) -> None:
    if error is None:
        results[spec] = CellResult(spec, value=value, source="parallel",
                                   duration=duration)
        _cache_store(cache, spec, value)
    else:
        results[spec] = CellResult(spec, error=error, source="parallel",
                                   duration=duration)
        stats.failures += 1
    stats.parallel_cells += 1


class _PoolUnavailable(RuntimeError):
    pass


def run_cells(specs: Iterable[ScenarioSpec], jobs: int = 1,
              cache: Optional[ResultCache] = None,
              timeout: float = DEFAULT_CELL_TIMEOUT) -> PipelineRun:
    """Execute *specs* (deduplicated, order-preserving) and return every
    cell's result plus hit/miss accounting.

    ``jobs > 1`` requests the multiprocessing pool; pool-less environments
    degrade to serial execution automatically.  Passing ``cache=None``
    disables memoization entirely.
    """
    ordered: List[ScenarioSpec] = []
    seen = set()
    for spec in specs:
        if spec not in seen:
            seen.add(spec)
            ordered.append(spec)

    store = cache if cache is not None else _NULL_CACHE
    stats = PipelineStats(jobs=max(1, jobs))
    started = time.monotonic()
    results: Dict[ScenarioSpec, CellResult] = {}

    pending: List[ScenarioSpec] = []
    for spec in ordered:
        hit = MISS
        try:
            hit = store.get(spec.cache_key())
        except Exception:
            hit = MISS  # unknown mechanism etc. — let execution report it
        if hit is not MISS:
            results[spec] = CellResult(spec, value=hit, source="cache")
            stats.hits += 1
        else:
            pending.append(spec)
    stats.misses = len(pending)

    if pending:
        if jobs > 1:
            try:
                _run_parallel(pending, results, stats, store, jobs, timeout)
                stats.mode = "parallel"
            except _PoolUnavailable as exc:
                stats.fallback_reason = str(exc)
                stats.mode = "serial"
                _run_serial(pending, results, stats, store)
        else:
            _run_serial(pending, results, stats, store)

    stats.duration = time.monotonic() - started
    # Deterministic ordering of the result mapping, whatever finished first.
    ordered_results = {spec: results[spec] for spec in ordered}
    return PipelineRun(results=ordered_results, stats=stats)


# ------------------------------------------------------------------- merging


def table5_overheads(run: PipelineRun,
                     mechanisms: Optional[Sequence[str]] = None
                     ) -> Dict[str, float]:
    """Fold micro cells into the dict :func:`render_table5` consumes —
    float-for-float identical to :func:`micro_overheads`."""
    from repro.interposers.registry import REGISTRY

    micro = {spec.mechanism: spec for spec in run.results
             if spec.kind == "micro"}
    if "native" not in micro:
        raise ValueError("table 5 merge needs the native micro cell")
    native = run.value(micro["native"])["cycles_per_call"]
    names = tuple(mechanisms) if mechanisms is not None else \
        tuple(name for name in REGISTRY.names()
              if name != "native" and name in micro)
    return {name: run.value(micro[name])["cycles_per_call"] / native
            for name in names}


def table6_rows(run: PipelineRun, keys: Optional[Sequence[str]] = None,
                mechanisms: Optional[Sequence[str]] = None) -> List[Dict]:
    """Fold macro cells into the row dicts :func:`render_table6` consumes,
    reproducing :func:`macro_results`'s arithmetic exactly."""
    from repro.evaluation.runner import MACRO_BY_KEY, MACRO_CONFIGS
    from repro.interposers.registry import REGISTRY

    by_cell = {(spec.workload, spec.mechanism): spec
               for spec in run.results if spec.kind == "macro"}
    row_keys = [config.key for config in MACRO_CONFIGS
                if (keys is None or config.key in keys)
                and any(cell_key_ == config.key
                        for cell_key_, _name in by_cell)]
    names = tuple(mechanisms) if mechanisms is not None else REGISTRY.names()
    rows = []
    for key in row_keys:
        config = MACRO_BY_KEY[key]
        native = run.value(by_cell[(key, "native")])
        relative: Dict[str, float] = {}
        for name in names:
            if name == "native":
                continue
            result = run.value(by_cell[(key, name)])
            if config.kind == "runtime":
                relative[name] = 100.0 * native["cycles"] / result["cycles"]
            else:
                relative[name] = (100.0 * result["throughput"]
                                  / native["throughput"])
        rows.append({
            "label": config.label,
            "native": native.get("throughput"),
            "relative": relative,
            "paper_relative": config.paper_relative,
        })
    return rows
