"""Evaluation harness: the paper's §6 methodology and every table/figure.

- :mod:`repro.evaluation.stats` — 10-run repetition with min/max outlier
  drop, geometric means, std-% reporting, and the seeded measurement-noise
  model (the simulator is deterministic; run-to-run variance is modelled).
- :mod:`repro.evaluation.runner` — micro/macro measurement drivers over the
  mechanism registry (:mod:`repro.interposers.registry`).
- :mod:`repro.evaluation.pipeline` — the parallel, memoized evaluation
  pipeline (``ScenarioSpec`` cells, multiprocessing pool, deterministic
  merge) and the Table 5/6 builders on it.
- :mod:`repro.evaluation.cache` — the content-addressed on-disk result
  cache the pipeline memoizes through.
- :mod:`repro.evaluation.tables` — Table 2/3/4/5/6 renderers and the
  Table 2 measurement.
- :mod:`repro.evaluation.figures` — Figure 1–4 generators.
- :mod:`repro.evaluation.manifest` — which command writes each committed
  file under ``benchmarks/output/``.

``python -m repro evalrun <target>`` regenerates any table, figure or the
full report.
"""

from repro.evaluation.stats import RepeatedMeasurement, geomean
from repro.evaluation.runner import (
    measure_micro_cycles,
    micro_overheads,
    MacroConfig,
    MACRO_CONFIGS,
    measure_macro,
    macro_results,
)
from repro.evaluation.cache import ResultCache
from repro.evaluation.pipeline import (
    CellResult,
    PipelineRun,
    PipelineStats,
    ScenarioSpec,
    macro_specs,
    micro_specs,
    run_cells,
    table5_overheads,
    table6_rows,
)

__all__ = [
    "RepeatedMeasurement",
    "geomean",
    "measure_micro_cycles",
    "micro_overheads",
    "MacroConfig",
    "MACRO_CONFIGS",
    "measure_macro",
    "macro_results",
    "ResultCache",
    "CellResult",
    "PipelineRun",
    "PipelineStats",
    "ScenarioSpec",
    "macro_specs",
    "micro_specs",
    "run_cells",
    "table5_overheads",
    "table6_rows",
]
