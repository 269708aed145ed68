"""Content-addressed on-disk cache for evaluation cells.

The simulator is deterministic (rr-style: same seed, same inputs, same
cycle counts), so a (mechanism, workload, config) cell is a pure function
of its inputs and can be memoized soundly — but only of the inputs the
key records.  The key records:

- the mechanism name and the workload/cell identity (kind, key, seed,
  iteration parameters);
- the *values* of the whole cycle model (every ``Event`` cost,
  ``CLOCK_HZ`` and the SUD signal-contention factor) and the engine
  flags.  These are read when the key is built, so a value patched at
  run time (a test's monkeypatch) leaves the source untouched yet still
  re-keys every cell.  Like the package digest this is deliberately
  coarse: no workload or CLI patches a cost, and a key that folds in
  every constant can never miss one a mechanism charges;
- :func:`package_digest`: one digest over the compiled code of every
  module in the ``repro`` package.  Comment-only and blank-line edits
  leave it unchanged; any code edit anywhere in the package changes it.

The package digest is deliberately coarse — an edit under ``repro/tools``
invalidates every table cell too.  A finer key would have to know which
modules a cell executes, and no import walk can: the registry loads the
mechanism factories by string through :mod:`importlib`, and a walk from
the pipeline reaches most of the package anyway.  Digesting everything
can never miss a module a cell depends on.

Entries are one JSON file per key under the cache root (default
``~/.cache/repro-eval``, override with ``$REPRO_EVAL_CACHE``); writes are
atomic (temp file + rename) so concurrent runs never observe torn entries.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from importlib.machinery import SourceFileLoader
from pathlib import Path
from types import CodeType
from typing import Dict, Iterable, Optional, Tuple

#: Bump when the key layout or cell value format changes.
SCHEMA_VERSION = 2

#: Sentinel distinguishing "no entry" from a cached falsy value.
MISS = object()

#: The ``repro`` package directory: everything :func:`package_digest` covers.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def default_cache_root() -> Path:
    env = os.environ.get("REPRO_EVAL_CACHE")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-eval").expanduser()


# -------------------------------------------------------------- code digests


def _canonical(value):
    """A ``repr``-stable stand-in for a code object or one of its
    constants.

    Line tables, first line numbers and file names are left out, so
    moving code between lines (a comment or a blank line) changes
    nothing.  ``frozenset`` members are sorted: their iteration order
    follows ``PYTHONHASHSEED`` and would otherwise differ per process.
    Every other constant (``None``, numbers, strings, bytes) has an
    exact ``repr`` already.
    """
    if isinstance(value, CodeType):
        return ("code", value.co_name, value.co_code,
                getattr(value, "co_exceptiontable", b""), value.co_names,
                value.co_varnames, value.co_freevars, value.co_cellvars,
                value.co_argcount, value.co_posonlyargcount,
                value.co_kwonlyargcount, value.co_flags,
                tuple(map(_canonical, value.co_consts)))
    if isinstance(value, tuple):
        return tuple(map(_canonical, value))
    if isinstance(value, frozenset):
        return ("frozenset", sorted(map(_canonical, value), key=repr))
    return value


def code_digest(code: CodeType) -> str:
    """SHA-256 of one compiled code object, line layout excluded."""
    return hashlib.sha256(repr(_canonical(code)).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def package_digest(root: Path = PACKAGE_ROOT) -> str:
    """One digest over every ``*.py`` under *root* (memoised per process).

    Files are visited in sorted relative-path order, and each relative
    path is hashed with its module's :func:`code_digest`, so adding,
    removing or renaming a module changes the digest too.  Code objects
    come from :meth:`SourceFileLoader.get_code`, which reuses
    ``__pycache__`` exactly as ``import`` does: the digest covers the
    bytecode the cells actually run.
    """
    digest = hashlib.sha256()
    for relative in sorted(path.relative_to(root).as_posix()
                           for path in root.rglob("*.py")):
        name = relative[:-3].replace("/", ".")
        code = SourceFileLoader(name, str(root / relative)).get_code(name)
        digest.update(f"{relative}\0{code_digest(code)}\n".encode("utf-8"))
    return digest.hexdigest()


# ------------------------------------------------------------------ cell keys


def model_constants() -> Dict[str, object]:
    """The run-time model values every measured cycle depends on, read
    now: ``CLOCK_HZ``, every ``Event`` cost, the SUD signal-contention
    factor and the engine flags.  :func:`cell_key` records them, and any
    in-process memo of a measurement must be keyed on them too (the
    traffic calibration memo is), or a patched cost reads back a stale
    value.
    """
    from repro.cpu.cycles import CLOCK_HZ, DEFAULT_COSTS, Event
    from repro.cpu.cycles import SUD_CONTENTION_FACTOR
    from repro.cpu.engine import EngineConfig

    # Engine-tier selection cannot change any measured number (the tiers
    # are cycle-exact by construction), but a tier bug would — so cells
    # measured under different REPRO_NO_* hatches must never share an
    # entry: a hatched re-run has to re-execute, not read back the cached
    # full-tier value it was meant to cross-check.
    engine = EngineConfig.from_env()
    return {"clock_hz": CLOCK_HZ,
            "costs": {event.name: DEFAULT_COSTS[event] for event in Event},
            "engine": dict(engine.flags(), block_cache=engine.block_cache),
            "sud_contention_factor": SUD_CONTENTION_FACTOR}


def cell_key(kind: str, mechanism: str, workload: str, seed: int,
             params: Iterable[Tuple[str, object]] = ()) -> str:
    """The content-addressed key for one evaluation cell.

    Raises :class:`repro.interposers.registry.UnknownMechanismError` for a
    mechanism the registry has never seen (such a cell cannot be cached —
    or executed).
    """
    from repro.interposers.registry import REGISTRY

    spec = REGISTRY.get(mechanism)
    sorted_params = sorted((key, value) for key, value in params)
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "mechanism": mechanism,
        "mechanism_kwargs": list(spec.kwargs),
        "workload": workload,
        "seed": seed,
        "params": sorted_params,
        "constants": model_constants(),
        "sources": package_digest(),
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
