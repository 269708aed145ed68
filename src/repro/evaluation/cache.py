"""Content-addressed on-disk cache for evaluation cells.

The simulator is deterministic (rr-style: same seed, same inputs, same
cycle counts), so a (mechanism, workload, config) cell is a pure function
of its inputs and can be memoized soundly.  The cache key captures exactly
those inputs:

- the mechanism name and the workload/cell identity (kind, key, seed,
  iteration parameters);
- the *values* of the cycle-model constants the mechanism's measured path
  depends on (the registry's per-mechanism ``cost_events`` plus the
  baseline events, ``CLOCK_HZ``, and — for SUD-armed mechanisms — the
  signal-contention factor).  Editing ``HASHSET_CHECK`` therefore
  invalidates the K23-ultra cells and nothing else;
- AST-level source digests of the modules the cell executes (measurement
  driver, interposer framework, the mechanism's own module, the kernel,
  and the cell's workload modules).  Digests are computed over the parsed
  AST, so comment-only and formatting-only edits do **not** invalidate.

Entries are one JSON file per key under the cache root (default
``~/.cache/repro-eval``, override with ``$REPRO_EVAL_CACHE``); writes are
atomic (temp file + rename) so concurrent runs never observe torn entries.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

#: Bump when the key layout or cell value format changes.
SCHEMA_VERSION = 1

#: Sentinel distinguishing "no entry" from a cached falsy value.
MISS = object()

#: Modules every cell executes, whatever the mechanism or workload.  The
#: interpreter stack (dispatch semantics, block cache, icache, memory) is
#: included so a change to execution machinery invalidates every cell —
#: stale cached cells must never mask an interpreter behaviour change.
COMMON_DEPENDENCIES: Tuple[str, ...] = (
    "repro.evaluation.runner",
    "repro.interposers.base",
    "repro.kernel.kernel",
    "repro.cpu.core",
    "repro.cpu.dispatch",
    "repro.cpu.blocks",
    "repro.cpu.icache",
    "repro.cpu.engine",
    "repro.cpu.tracejit",
    "repro.memory.address_space",
)

#: Workload-key prefix → modules that cell's measurement exercises.
_MACRO_WORKLOAD_MODULES: Dict[str, Tuple[str, ...]] = {
    "nginx": ("repro.workloads.nginx", "repro.workloads.http",
              "repro.workloads.clients"),
    "lighttpd": ("repro.workloads.lighttpd", "repro.workloads.http",
                 "repro.workloads.clients"),
    "redis": ("repro.workloads.redis", "repro.workloads.clients"),
    "sqlite": ("repro.workloads.sqlite",),
}

_MICRO_WORKLOAD_MODULES: Tuple[str, ...] = ("repro.workloads.stress",)

#: Modules every shadow (dark-launch) cell executes on top of the
#: workload's own: the run surface, the mirroring seam, and the
#: normalization/diff machinery the verdict is computed with.
_SHADOW_MODULES: Tuple[str, ...] = (
    "repro.runapi",
    "repro.shadow.divergence",
    "repro.shadow.harness",
    "repro.workloads.clients",
    "repro.faultinject.conformance",
    "repro.tools.tracediff",
)

#: Modules every loadtest (traffic-engine) shard executes on top of the
#: served workload's own: schedule generation, the queueing fabric, the
#: fleet driver (calibration + full-serve), and the run surface.
_LOADTEST_MODULES: Tuple[str, ...] = (
    "repro.runapi",
    "repro.traffic.config",
    "repro.traffic.schedule",
    "repro.traffic.loadbalancer",
    "repro.traffic.fleet",
    "repro.traffic.engine",
    "repro.observability.analyzers.latency",
    "repro.observability.spans",
)


def default_cache_root() -> Path:
    env = os.environ.get("REPRO_EVAL_CACHE")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-eval").expanduser()


# ------------------------------------------------------------- source digests


def source_digest(source: str) -> str:
    """SHA-256 of the parsed AST of *source* — stable across comment-only
    and whitespace-only edits, changed by any semantic edit."""
    tree = ast.parse(source)
    return hashlib.sha256(ast.dump(tree).encode("utf-8")).hexdigest()


def module_source_digest(module_name: str) -> str:
    """AST digest of an importable module's source (cached per process)."""
    cached = _MODULE_DIGESTS.get(module_name)
    if cached is None:
        module = importlib.import_module(module_name)
        cached = source_digest(inspect.getsource(module))
        _MODULE_DIGESTS[module_name] = cached
    return cached


_MODULE_DIGESTS: Dict[str, str] = {}


def workload_modules(kind: str, workload: str) -> Tuple[str, ...]:
    """The workload modules one cell depends on."""
    if kind == "micro":
        return _MICRO_WORKLOAD_MODULES
    prefix = workload.split("-", 1)[0]
    base = _MACRO_WORKLOAD_MODULES.get(prefix, ())
    if kind == "shadow":
        if workload == "stress":
            base = _MICRO_WORKLOAD_MODULES
        return _SHADOW_MODULES + base
    if kind == "loadtest":
        return _LOADTEST_MODULES + base
    return base


# ------------------------------------------------------------------ cell keys


def cell_key(kind: str, mechanism: str, workload: str, seed: int,
             params: Iterable[Tuple[str, object]] = ()) -> str:
    """The content-addressed key for one evaluation cell.

    Raises :class:`repro.interposers.registry.UnknownMechanismError` for a
    mechanism the registry has never seen (such a cell cannot be cached —
    or executed).
    """
    from repro.cpu.cycles import CLOCK_HZ, DEFAULT_COSTS, Event
    from repro.cpu.cycles import SUD_CONTENTION_FACTOR
    from repro.cpu.engine import EngineConfig
    from repro.interposers.registry import REGISTRY

    spec = REGISTRY.get(mechanism)
    costs = {name: DEFAULT_COSTS[Event[name]]
             for name in spec.relevant_events}
    constants: Dict[str, object] = {"clock_hz": CLOCK_HZ, "costs": costs}
    # Engine-tier selection cannot change any measured number (the tiers
    # are cycle-exact by construction), but a tier bug would — so cells
    # measured under different REPRO_NO_* hatches must never share an
    # entry: a hatched re-run has to re-execute, not read back the cached
    # full-tier value it was meant to cross-check.
    engine = EngineConfig.from_env()
    constants["engine"] = dict(engine.flags(),
                               block_cache=engine.block_cache)
    if spec.arms_sud:
        constants["sud_contention_factor"] = SUD_CONTENTION_FACTOR
    modules = (COMMON_DEPENDENCIES + (spec.factory.partition(":")[0],)
               + workload_modules(kind, workload))
    sorted_params = sorted((key, value) for key, value in params)
    # Shadow cells run a second mechanism: fold its cost constants and
    # its module digest into the key so editing the shadow-side
    # mechanism invalidates the cell exactly like editing the primary.
    shadow_name = next((value for key, value in sorted_params
                        if key == "shadow"), None)
    if shadow_name is not None:
        shadow_spec = REGISTRY.get(str(shadow_name))
        constants["shadow_costs"] = {
            name: DEFAULT_COSTS[Event[name]]
            for name in shadow_spec.relevant_events}
        if shadow_spec.arms_sud:
            constants["sud_contention_factor"] = SUD_CONTENTION_FACTOR
        modules = modules + (shadow_spec.factory.partition(":")[0],)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "mechanism": mechanism,
        "mechanism_kwargs": list(spec.kwargs),
        "workload": workload,
        "seed": seed,
        "params": sorted_params,
        "constants": constants,
        "sources": {name: module_source_digest(name)
                    for name in sorted(set(modules))},
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- the cache


class ResultCache:
    """One JSON file per cell key under *root*; values are JSON-safe cell
    measurements (ints/floats survive the round trip exactly)."""

    def __init__(self, root: "Path | str | None" = None):
        self.root = Path(root) if root is not None else default_cache_root()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        """The cached value for *key*, or :data:`MISS`."""
        try:
            raw = self._path(key).read_text()
        except (OSError, ValueError):
            return MISS
        try:
            entry = json.loads(raw)
        except ValueError:
            return MISS
        if entry.get("schema") != SCHEMA_VERSION:
            return MISS
        return entry.get("value", MISS)

    def put(self, key: str, value, meta: Optional[Dict] = None) -> None:
        """Atomically persist *value* under *key* (best-effort: an
        unwritable cache degrades to a no-op, never an error)."""
        entry = {"schema": SCHEMA_VERSION, "value": value,
                 "meta": meta or {}}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(entry, handle, sort_keys=True)
                os.replace(tmp, self._path(key))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        try:
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        except OSError:
            pass
        return removed


class NullCache(ResultCache):
    """The ``--no-cache`` cache: never hits, never writes."""

    def __init__(self):
        super().__init__(root=Path(os.devnull))

    def get(self, key: str):
        return MISS

    def put(self, key: str, value, meta: Optional[Dict] = None) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def clear(self) -> int:
        return 0
