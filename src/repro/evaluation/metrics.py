"""Per-mechanism instrumentation-bus metrics → ``METRICS_*.json``.

Each mechanism's snapshot is one ``metrics`` cell of the evaluation
pipeline (:func:`repro.evaluation.pipeline.run_matrix`), run and cached
like the Table 5 and 6 cells.  Each gets a short, deterministic stress
run with a
:class:`~repro.observability.sinks.CounterSink` **and** a
:class:`~repro.observability.analyzers.LatencyAnalyzer` attached for the
whole kernel lifetime; the snapshots (event tallies, per-cycle-model-
event charge counts/cycles, raw-label cycles, per-syscall histograms,
and per-(phase, syscall) latency distributions with p50/p95/p99/max)
land next to the other evaluation artifacts in ``benchmarks/output/``.
These are the machine-readable companions to Table 5: the decomposition
tables are *derived* views, the metrics artifact is the raw counter dump
— and the ``latency`` section is what flat counters cannot show, the
*distribution* of each phase's forwarding cost.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

METRICS_TABLE5_PATH = Path("benchmarks/output/METRICS_table5.json")


#: Stress-loop iterations of each mechanism's METRICS run (``evalrun
#: --smoke`` uses :data:`SMOKE_ITERATIONS`), and the run's seed.
ITERATIONS = 120
SMOKE_ITERATIONS = 48
SEED = 99


def mechanism_snapshot(name: str, iterations: int, seed: int) -> Dict:
    """One mechanism's counter and latency snapshot: the value of its
    ``metrics`` evaluation cell."""
    from repro.evaluation.breakdown import _counts_for
    from repro.observability.analyzers import LatencyAnalyzer

    latency = LatencyAnalyzer()
    sink, total = _counts_for(name, iterations, seed, extra_sinks=(latency,))
    snapshot = sink.snapshot()
    snapshot["cycle_counter"] = total
    snapshot["latency"] = latency.snapshot()
    return snapshot


def metrics_document(snapshots: Dict[str, Dict], iterations: int,
                     seed: int) -> Dict:
    """The ``METRICS_*.json`` document over per-mechanism *snapshots*."""
    from repro.cpu.cycles import CLOCK_HZ

    return {
        "workload": "stress",
        "iterations": iterations,
        "seed": seed,
        "clock_hz": CLOCK_HZ,
        "mechanisms": snapshots,
    }


def write_metrics(doc: Dict, path=METRICS_TABLE5_PATH) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
