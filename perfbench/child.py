"""One isolated benchmark process: run one workload once, write its result.

Started by ``run.py`` as ``python3 perfbench/child.py '<spec json>'`` in a
fresh interpreter, with ``PYTHONPATH`` pointing at the checkout's ``src``.
The spec's ``mode`` is one of:

- ``probe``: stop as soon as set-up ends and report only ``setup_s``;
- ``run``: the end-to-end measurement, untraced;
- ``baseline``: untraced, with every traced module imported first — the
  same configuration as ``traced``, for the tracing overhead;
- ``traced``: every layer entry point wrapped; reports per-layer metrics.

End-to-end times are host CPU seconds (this process plus every worker it
started), not wall seconds, scaled to a fixed host speed by the sampler
of ``speed.py``: on a shared machine, wall time swings with the
neighbours' load, and raw CPU time still does, by up to 2x.  The result
JSON goes to ``<tmp>/result.json``.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

from layers import ENTRY_POINTS, LayerTrace
from spans import Tracer, leftover_wrappers, resolve
from speed import SpeedSampler, factor, read_log
from workloads import TOOL_MODULES, WORKLOADS, Context

#: Set-up ends at whichever happens first: a kernel is constructed, or the
#: pipeline hands cells to its worker pool (whose workers then construct
#: the kernels).
SETUP_END = ("repro.kernel.kernel:Kernel.__init__",
             "repro.evaluation.pipeline:_run_parallel")

#: The cell entry points as their callers look them up: a pipeline cell
#: (run in a pool worker under ``--jobs 2``) and a conformance cell.
CELLS = ("repro.evaluation.pipeline:execute_cell",
         "repro.evaluation.conformance:run_cell")

#: Speed samples a cell needs (50 ms of CPU) to be scaled by its own
#: samples; a shorter cell is scaled by its run's factor.
CELL_SAMPLES = 10


class Patches:
    """Attribute replacements, undone newest first by :meth:`restore`."""

    def __init__(self):
        self._saved = []

    def replace(self, target: str, make: Callable) -> None:
        owner, attr = resolve(target)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SetupStamp(Patches):
    """One-shot hooks on :data:`SETUP_END`: the first call stamps this
    process's CPU time, removes every hook, hands the stamp to *on_stamp*,
    then proceeds (so later calls pay nothing)."""

    def __init__(self, on_stamp: Callable[[float], None]):
        super().__init__()
        self.on_stamp = on_stamp
        self.cpu_s = None

    def install(self) -> None:
        for target in SETUP_END:
            def make(original):
                def hook(*args, **kwargs):
                    self.fire()
                    return original(*args, **kwargs)
                return hook

            self.replace(target, make)

    def fire(self) -> None:
        if self.cpu_s is None:
            self.cpu_s = time.process_time()
            self.restore()
            self.on_stamp(self.cpu_s)


def time_cells(patches: Patches, log: Path, sampler: SpeedSampler,
               speed_log: Path) -> None:
    """Append each cell's CPU seconds and speed factor (0 when the cell
    was too short to sample) to *log*, and the speed samples taken so far
    to *speed_log* — from whichever process runs the cell, so pool
    workers report too (a forked worker starts its own sampling)."""
    for target in CELLS:
        def make(original):
            def timed(*args, **kwargs):
                sampler.arm()
                first = len(sampler.samples)
                start = time.process_time()
                try:
                    return original(*args, **kwargs)
                finally:
                    cpu_s = time.process_time() - start
                    own = sampler.samples[first:]
                    scale = factor(own) if len(own) >= CELL_SAMPLES else 0.0
                    with open(log, "a") as handle:
                        handle.write(f"{cpu_s!r} {scale!r}\n")
                    sampler.flush(speed_log)
            return timed

        patches.replace(target, make)


def observe(tracer: Tracer, ctx: Context) -> None:
    """Wrap ``run_cells`` (its PipelineRun goes to ``ctx.runs``) and the
    conformance cell, in every mode."""
    tracer.patch("repro.evaluation.pipeline:run_cells",
                 "pipeline.run_cells", "evaluation.pipeline",
                 after=lambda a, k, run, s, e: ctx.runs.append(run))
    tracer.patch("repro.faultinject.conformance:run_cell",
                 "faultinject.cell", "faultinject")


def engine_tier() -> str:
    from repro.cpu.engine import EngineConfig

    if os.environ.get("REPRO_NO_BLOCK_CACHE", "") == "1":
        return "single-step"
    flags = EngineConfig.from_env().flags()
    return "+".join(name for name in ("chain", "superblock", "trace_jit")
                    if flags[name]) or "block-cache"


def reap_workers() -> None:
    deadline = time.monotonic() + 30
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def cpu_seconds() -> float:
    """CPU time of this process and every worker it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any worker it reaped."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def shard_metrics(runs) -> Dict[str, float]:
    """Busiest shard, imbalance and pool overhead of every parallel
    ``run_cells`` call, from its cell durations and the public shard
    assignment."""
    from repro.evaluation.pipeline import shard_specs

    busy_max = busy_mean = overhead = 0.0
    for run in runs:
        if run.stats.mode != "parallel":
            continue
        pending = [spec for spec, result in run.results.items()
                   if result.source != "cache"]
        busy = [sum(run.results[spec].duration for spec in shard)
                for shard in shard_specs(pending, run.stats.jobs)]
        busy_max += max(busy)
        busy_mean += sum(busy) / len(busy)
        overhead += run.stats.duration - max(busy)
    return {"pipeline.shard_busy_max_s": busy_max,
            "pipeline.shard_imbalance": busy_max / busy_mean
            if busy_mean else 0.0,
            "pipeline.overhead_s": overhead}


def run(spec: Dict) -> Dict:
    # Armed first, so the set-up imports are sampled too.
    sampler = SpeedSampler()
    sampler.arm()
    try:
        return _run(spec, sampler)
    finally:
        sampler.disarm()


def _run(spec: Dict, sampler: SpeedSampler) -> Dict:
    tmp = Path(spec["tmp"])
    mode = spec["mode"]
    name = spec["workload"]
    result_path = tmp / "result.json"
    cell_log = tmp / "cells.txt"
    speed_log = tmp / "speed.txt"

    def write(result: Dict) -> None:
        result_path.write_text(json.dumps(result))

    modules = list(TOOL_MODULES[name])
    if mode in ("baseline", "traced"):
        modules += [target.partition(":")[0] for _l, _n, target
                    in ENTRY_POINTS]
    for module in modules + ["repro.evaluation.pipeline",
                             "repro.evaluation.conformance"]:
        importlib.import_module(module)

    setup = {}

    def on_stamp(cpu_s: float) -> None:
        # No cell has ended yet, so every sample so far is a set-up one.
        setup["setup_s"] = cpu_s * factor(sampler.samples)
        if mode == "probe":
            write(setup)
            os._exit(0)

    stamp = SetupStamp(on_stamp)
    if mode in ("probe", "run"):
        stamp.install()

    ctx = Context(tmp=tmp, variant=spec["variant"], jobs=spec["jobs"],
                  small=spec.get("small", False))
    tracer = Tracer()
    layer_trace = None
    if mode == "traced":
        layer_trace = LayerTrace(tracer)
        layer_trace.install()
        ctx.span = tracer.span
    observe(tracer, ctx)
    cells = Patches()
    time_cells(cells, cell_log, sampler, speed_log)

    window = time.process_time()
    tracer.start()
    try:
        outcome = WORKLOADS[name](ctx)
    finally:
        tracer.stop()
        end = time.process_time()
        stamp.restore()
        cells.restore()
        tracer.uninstall()
    if mode == "probe":
        raise RuntimeError("set-up never ended: no kernel was constructed")
    if mode == "run":
        reap_workers()
    sampler.flush(speed_log)
    speed = factor(read_log(speed_log))

    result = {
        "speed_factor": speed,
        "window_s": (end - window) * speed,
        "outputs": outcome.outputs,
        "checks": outcome.checks,
        "cells": outcome.cells,
        "cells_failed": outcome.cells_failed,
        "requests": outcome.requests,
        "pipeline_cells": sum(r.stats.cells for r in ctx.runs),
        "engine": engine_tier(),
    }
    if mode == "run":
        result.update({
            "setup_s": setup["setup_s"],
            "run_s": (cpu_seconds() - stamp.cpu_s) * speed,
            "cell_durations": [cpu_s * (scale or speed) for cpu_s, scale in
                               (map(float, line.split()) for line in
                                cell_log.read_text().splitlines())],
            "peak_rss_mb": peak_rss_mb(),
            "shards": shard_metrics(ctx.runs),
        })
    if layer_trace is not None:
        layer_trace.finish()
        leftovers = [f"{getattr(owner, '__name__', owner)}.{attr}"
                     for owner, attr in leftover_wrappers("repro.")]
        result["checks"].append(("every wrapper removed", not leftovers,
                                 ", ".join(leftovers)))
        residual = layer_trace.residual_ns()
        result["checks"].append(("layer self times + other_s == total",
                                 residual == 0, f"residual {residual} ns"))
        result["layers"] = layer_trace.metrics(result["pipeline_cells"])
    write(result)
    return result


def main(argv: List[str]) -> int:
    run(json.loads(argv[1]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
