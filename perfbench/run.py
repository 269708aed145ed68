#!/usr/bin/env python3
"""Host-time benchmark of ``repro``: end to end, and split by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``matrix-cold``, ``loadtest-model``, ``conformance-replay``
(see ``workloads.py``).  Every measured run is a fresh interpreter
(``child.py``) with a private cache and output directory under
``.perfbench_tmp/``, ``REPRO_*`` variables cleared, and its outputs
checked against the digests recorded in ``expected.json``.

``--trace 0`` first starts a few set-up probes, then end-to-end runs
until ``--seconds`` have passed, and reports medians of the end-to-end
metrics.  Times are host CPU seconds of the run's processes, scaled to
a fixed host speed (see ``speed.py``); rates are per such second.
``--trace 1`` alternates untraced and traced runs of the same serial
configuration (plus, for a ``--jobs 2`` workload,
one end-to-end run for the shard metrics) and reports the per-layer
metrics of ``layers.py``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import JOBS, VARIANTS, WORKLOADS  # noqa: E402

#: Set-up-only processes per untraced run (set-up is short, so it gets
#: more samples than the runs alone give).
SETUP_PROBES = 10

#: No run may outlive this, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s", "run_s": "s", "cells_per_s": "1/s",
    "requests_per_s": "1/s", "cell_p50_s": "s", "cell_p90_s": "s",
    "peak_rss_mb": "MB",
}


class RunFailed(RuntimeError):
    pass


def child_env(tmp: Path) -> Dict[str, str]:
    """The environment of a user who set nothing: no ``REPRO_*`` hatch,
    the cache and flight-recorder dumps redirected into *tmp*."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env.update(PYTHONPATH=str(ROOT / "src"),
               REPRO_EVAL_CACHE=str(tmp / "cache"),
               REPRO_FLIGHT_DIR=str(tmp / "flightrec"))
    return env


class Runner:
    """Starts child processes, each in a fresh private directory."""

    def __init__(self, workload: str, variant: int, deadline: float):
        self.workload = workload
        self.variant = variant
        self.deadline = deadline
        self.root = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.count = 0

    def __call__(self, mode: str, jobs: int) -> Dict:
        self.count += 1
        tmp = self.root / f"{self.count}-{mode}"
        tmp.mkdir(parents=True)
        spec = {"workload": self.workload, "variant": self.variant,
                "jobs": jobs, "mode": mode, "tmp": str(tmp)}
        env = child_env(tmp)
        with open(tmp / "stdout.txt", "wb") as out, \
                open(tmp / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=str(tmp), env=env, stdout=out, stderr=err,
                start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise RunFailed(f"{mode} run of {self.workload} exceeded "
                                f"the {HARD_LIMIT_S:.0f}s limit")
            finally:
                # The child's session holds it and any worker it started.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
                proc.wait()
        result_path = tmp / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            tail = (tmp / "stderr.txt").read_text(errors="replace")[-2000:]
            raise RunFailed(f"{mode} run of {self.workload} exited "
                            f"{proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
        shutil.rmtree(tmp, ignore_errors=True)
        return result

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass


def load_expected(workload: str, variant: int) -> Dict:
    path = HERE / "expected.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    return doc.get(workload, {}).get(str(variant), {})


class Tally:
    """Checks and operations across every run, for correct/attempted/
    failed."""

    def __init__(self, expected: Dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def add(self, result: Dict, label: str) -> None:
        checks = [tuple(check) for check in result["checks"]]
        want = self.expected.get("outputs")
        if want is None:
            checks.append(("reference digests recorded", False,
                           "expected.json has no entry for this variant"))
        else:
            for name in sorted(set(want) | set(result["outputs"])):
                got = result["outputs"].get(name)
                checks.append((f"{name} digest matches the reference",
                               got == want.get(name),
                               f"got {got}, want {want.get(name)}"))
        self.attempted += result["cells"] + len(checks)
        self.failed += result["cells_failed"]
        for name, ok, detail in checks:
            if not ok:
                self.failed += 1
                print(f"FAILED [{label}] {name}: {detail}", file=sys.stderr)

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {reason}", file=sys.stderr)


def measure_end_to_end(run: Runner, jobs: int, seconds: float,
                       tally: Tally) -> Dict[str, float]:
    started = time.monotonic()
    setups = [run("probe", jobs)["setup_s"] for _ in range(SETUP_PROBES)]
    reps: List[Dict] = []
    while not reps or time.monotonic() - started < seconds:
        rep = run("run", jobs)
        tally.add(rep, f"run {len(reps) + 1}")
        reps.append(rep)
    print(f"{len(reps)} runs + {SETUP_PROBES} set-up probes; engine tier "
          f"{reps[0]['engine']}; host speed factor "
          f"{statistics.median(r['speed_factor'] for r in reps):.3f}",
          file=sys.stderr)
    durations = [d for rep in reps for d in rep["cell_durations"]]
    return {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "cells_per_s": statistics.median(r["cells"] / r["run_s"]
                                         for r in reps),
        "requests_per_s": statistics.median(r["requests"] / r["run_s"]
                                            for r in reps),
        "cell_p50_s": statistics.median(durations),
        "cell_p90_s": statistics.quantiles(durations, n=10,
                                           method="inclusive")[-1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def measure_layers(run: Runner, jobs: int, seconds: float,
                   tally: Tally) -> Dict[str, float]:
    started = time.monotonic()
    shards = {name: 0.0 for name in ("pipeline.shard_busy_max_s",
                                     "pipeline.shard_imbalance",
                                     "pipeline.overhead_s")}
    if jobs > 1:
        rep = run("run", jobs)
        tally.add(rep, "end-to-end run")
        shards = rep["shards"]
    baselines: List[Dict] = []
    traced: List[Dict] = []
    while not traced or time.monotonic() - started < seconds:
        baselines.append(run("baseline", 1))
        traced.append(run("traced", 1))
        tally.add(baselines[-1], f"untraced run {len(baselines)}")
        tally.add(traced[-1], f"traced run {len(traced)}")
        if traced[-1]["outputs"] != baselines[-1]["outputs"]:
            tally.fail("traced output digests differ from untraced ones")
    print(f"{len(traced)} traced + {len(baselines)} untraced runs; engine "
          f"tier {traced[0]['engine']}", file=sys.stderr)

    layers = [rep["layers"] for rep in traced]
    # The metrics of one run, the median by traced total, so that its
    # self times and other_s still add up to its total exactly.
    metrics = dict(sorted(layers, key=lambda layer: layer["trace.total_s"])
                   [(len(layers) - 1) // 2])
    metrics.update(shards)
    reference = tally.expected.get("exact", {})
    drift = 0
    for name in EXACT_COUNTS:
        values = {layer[name] for layer in layers}
        if len(values) > 1:
            tally.fail(f"exact count {name} changed between identical "
                       f"runs: {sorted(values)}")
        if reference.get(name) != layers[0][name]:
            drift += 1
            print(f"DRIFT {name}: {layers[0][name]} (reference "
                  f"{reference.get(name)})", file=sys.stderr)
    metrics["exact.drift"] = drift
    metrics["trace.overhead_s"] = (
        statistics.median(r["window_s"] for r in traced)
        - statistics.median(r["window_s"] for r in baselines))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2

    variant = args.seed % VARIANTS
    run = Runner(args.workload, variant, time.monotonic() + HARD_LIMIT_S)
    tally = Tally(load_expected(args.workload, variant))
    jobs = JOBS[args.workload]
    try:
        if args.trace:
            values = measure_layers(run, jobs, args.seconds, tally)
            units = {name: unit for name, (unit, _b, _d)
                     in LAYER_METRICS.items()}
        else:
            values = measure_end_to_end(run, jobs, args.seconds, tally)
            units = END_TO_END
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
