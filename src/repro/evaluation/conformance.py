"""The conformance matrix: mechanisms × workloads × fault-schedule seeds.

For each (workload, seed) the ``native`` null-interposer runs first and
becomes the oracle; every other registered mechanism then runs under the
*same* schedule and is diffed against it
(:meth:`repro.faultinject.conformance.Observation.diff`).  The result is a
per-mechanism verdict matrix — the repro's counterpart of the paper's
"does the mechanism preserve application semantics under adversarial
timing?" claim — rendered as text and emitted as a JSON artifact next to
the other evaluation outputs (``benchmarks/output/CONFORMANCE_matrix.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faultinject.conformance import (Observation, WORKLOADS,
                                           conformance_config, run_cell)
from repro.faultinject.schedule import FaultConfig, build_schedule

ORACLE = "native"

#: Default matrix axes: every registered mechanism, the stress workload
#: plus the coreutils sweep, a handful of schedule seeds.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("stress", "pwd", "touch", "ls", "cat")
DEFAULT_SEEDS: Tuple[int, ...] = (1, 2, 3, 4, 5)

ARTIFACT_PATH = Path("benchmarks/output/CONFORMANCE_matrix.json")


@dataclass
class CellVerdict:
    """One mechanism's verdict against the oracle for one (workload, seed)."""

    mechanism: str
    workload: str
    seed: int
    ok: bool
    divergences: List[str] = field(default_factory=list)
    injections: Tuple[str, ...] = ()
    schedule_sha: str = ""
    #: CounterSink snapshot of the cell run — diagnostic, never compared.
    counters: Dict = field(default_factory=dict)


@dataclass
class ConformanceMatrix:
    mechanisms: Tuple[str, ...]
    workloads: Tuple[str, ...]
    seeds: Tuple[int, ...]
    verdicts: List[CellVerdict] = field(default_factory=list)

    @property
    def divergent(self) -> List[CellVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        return not self.divergent

    # ------------------------------------------------------------- rendering

    def render(self) -> str:
        lines = ["Conformance matrix (oracle: %s; %d seeds: %s)"
                 % (ORACLE, len(self.seeds),
                    ", ".join(str(s) for s in self.seeds)), ""]
        width = max(len(m) for m in self.mechanisms) + 2
        header = "mechanism".ljust(width) + "  ".join(
            w.ljust(7) for w in self.workloads)
        lines += [header, "-" * len(header)]
        for mech in self.mechanisms:
            if mech == ORACLE:
                continue
            cells = []
            for wl in self.workloads:
                bad = sum(1 for v in self.verdicts
                          if v.mechanism == mech and v.workload == wl
                          and not v.ok)
                cells.append(("OK" if not bad else f"DIV:{bad}").ljust(7))
            lines.append(mech.ljust(width) + "  ".join(cells))
        for v in self.divergent:
            lines.append("")
            lines.append(f"DIVERGED {v.mechanism}/{v.workload}/seed={v.seed}:")
            lines.extend(f"  - {d}" for d in v.divergences)
        lines.append("")
        lines.append("verdict: %s (%d/%d cells conformant)"
                     % ("OK" if self.ok else "DIVERGED",
                        len(self.verdicts) - len(self.divergent),
                        len(self.verdicts)))
        return "\n".join(lines)

    def to_json(self) -> Dict:
        return {
            "oracle": ORACLE,
            "mechanisms": list(self.mechanisms),
            "workloads": list(self.workloads),
            "seeds": list(self.seeds),
            "ok": self.ok,
            "cells": [
                {
                    "mechanism": v.mechanism,
                    "workload": v.workload,
                    "seed": v.seed,
                    "ok": v.ok,
                    "divergences": v.divergences,
                    "injections": list(v.injections),
                    "schedule_sha": v.schedule_sha,
                    "counters": v.counters,
                }
                for v in self.verdicts
            ],
        }

    def write_artifact(self, path: Optional[Path] = None) -> Path:
        path = Path(path) if path is not None else ARTIFACT_PATH
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path


def matrix_cells(names: Sequence[str], workloads: Sequence[str],
                 seeds: Sequence[int]) -> List[Tuple[str, str, int]]:
    """The ``(mechanism, workload, seed)`` cells of a matrix in the order
    :func:`run_matrix` runs them: per workload and seed, the oracle
    first.  Observations are keyed by cell, so this order decides only
    which cell runs when, never a verdict."""
    others = tuple(name for name in names if name != ORACLE)
    return [(mech, workload, seed)
            for workload in workloads for seed in seeds
            for mech in (ORACLE,) + others]


def run_matrix(mechanisms: Optional[Sequence[str]] = None,
               workloads: Sequence[str] = DEFAULT_WORKLOADS,
               seeds: Sequence[int] = DEFAULT_SEEDS,
               config: Optional[FaultConfig] = None,
               jobs: int = 1,
               verbose: bool = False) -> ConformanceMatrix:
    """Run the full differential matrix and collect verdicts.

    The oracle cell for each (workload, seed) is run once and shared by
    every mechanism's diff.  Each seed's fault schedule is built once,
    before the first kernel, and handed to every cell of that seed.  With
    ``jobs > 1`` the cells fan out over a process pool; each cell is a
    pure function of its arguments (fixed kernel seed, pre-drawn
    schedule), so the parallel matrix is cell-for-cell identical to the
    serial one — only wall-clock changes.
    """
    from repro.interposers.registry import REGISTRY

    names = (tuple(mechanisms) if mechanisms is not None
             else tuple(REGISTRY.names()))
    for wl in workloads:
        if wl not in WORKLOADS:
            raise ValueError(f"unknown workload {wl!r}")
    config = config or conformance_config()
    schedules = {seed: build_schedule(seed, config) for seed in seeds}
    for schedule in schedules.values():
        schedule.digest()  # cached, so pooled cells receive it computed
    matrix = ConformanceMatrix(names, tuple(workloads), tuple(seeds))
    cells = matrix_cells(names, workloads, seeds)
    observations: Dict[Tuple[str, str, int], Observation] = {}
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                key: pool.submit(run_cell, *key, schedule=schedules[key[2]])
                for key in cells}
            for key, future in futures.items():
                observations[key] = future.result()
    else:
        for key in cells:
            observations[key] = run_cell(*key, schedule=schedules[key[2]])
    for workload in workloads:
        for seed in seeds:
            oracle = observations[(ORACLE, workload, seed)]
            for mech in names:
                if mech == ORACLE:
                    continue
                obs = observations[(mech, workload, seed)]
                divergences = obs.diff(oracle)
                matrix.verdicts.append(CellVerdict(
                    mechanism=mech, workload=workload, seed=seed,
                    ok=not divergences, divergences=divergences,
                    injections=obs.injections,
                    schedule_sha=obs.schedule_sha,
                    counters=obs.counters))
                if verbose:
                    status = "OK" if not divergences else "DIVERGED"
                    print(f"  {mech:>24s} / {workload:<7s} seed={seed}: "
                          f"{status}")
    return matrix
