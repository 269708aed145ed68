"""The benchmark's workloads: the commands people run, driven in-process.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`: SHA-256 digests of the outputs it checks, the checks
it made, and the work it completed.  Every input derives from the
context's *variant* (the benchmark seed modulo :data:`VARIANTS`), so one
seed always runs the same inputs and every variant has a recorded
reference digest in ``expected.json``.

- ``matrix-cold``: ``evalrun matrix`` (Table 5 and trimmed Table 6 rows,
  all nine mechanisms, METRICS collection) into an empty private cache
  at ``--jobs 2``, then an immediate warm rerun that must hit every cell
  and print byte-identical tables and METRICS.
- ``loadtest-model``: ``loadtest`` in model mode, nginx, native +
  K23-ultra, ``--jobs 1``, with a queue limit low enough that the top
  ramp stages shed.
- ``conformance-replay``: the serial fault-injected conformance matrix,
  then a record, a full replay and a midpoint replay of a fault-injected
  K23-ultra stress run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Distinct input sets per workload; the seed picks one.
VARIANTS = 4

#: Table 6 rows of matrix-cold: a multi-worker HTTP row, a redis row and
#: sqlite (the full eleven rows do not fit one run).
MATRIX_ROWS = ("nginx-10w-0k", "redis-1t", "sqlite")

LOADTEST_REQUESTS = 200_000
#: Low enough that the top ramp stages shed (the default, 4096, sheds
#: nothing at this size).
LOADTEST_QUEUE_LIMIT = 256


@dataclass
class Context:
    """What a workload run gets: a private directory, its inputs and a
    span opener (a no-op unless the run is traced)."""

    tmp: Path
    variant: int
    jobs: int
    #: Cut-down inputs, for the benchmark's own test.
    small: bool = False
    span: Callable = lambda name, layer: contextlib.nullcontext()
    #: PipelineRun objects of every ``run_cells`` call, appended by the
    #: process's observer as the workload runs.
    runs: List = field(default_factory=list)


@dataclass
class Outcome:
    outputs: Dict[str, str] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    cells: int = 0
    cells_failed: int = 0
    requests: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return ok


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def call(main: Callable, argv: List[str]) -> Tuple[int, str, str]:
    """Run a CLI ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code if isinstance(exc.code, int) else 2
    return status or 0, out.getvalue(), err.getvalue()


def _tail(text: str, lines: int = 5) -> str:
    return " | ".join(text.strip().splitlines()[-lines:])


def _last_json(text: str) -> Dict:
    """The JSON object a ``--json`` CLI printed last, or ``{}``."""
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {}


# ---------------------------------------------------------------- matrix-cold


def matrix_cold(ctx: Context) -> Outcome:
    from repro.evaluation.runner import MACRO_BY_KEY
    from repro.tools import evalrun

    outcome = Outcome()
    cache = ctx.tmp / "cache"
    argv = ["matrix", "--jobs", str(ctx.jobs), "--cache-dir", str(cache),
            "--seed", str(20 + ctx.variant)]
    argv += ["--smoke"] if ctx.small else ["--rows", *MATRIX_ROWS]

    passes = {}
    for tag in ("cold", "warm"):
        metrics = ctx.tmp / f"METRICS_{tag}.json"
        first = len(ctx.runs)
        status, out, err = call(evalrun.main,
                                argv + ["--metrics-out", str(metrics)])
        runs = ctx.runs[first:]
        outcome.check(f"{tag} evalrun exit 0", status == 0, _tail(err))
        for run in runs:
            outcome.cells += run.stats.cells
            outcome.cells_failed += run.stats.failures
        passes[tag] = (out, metrics.read_bytes() if metrics.exists()
                       else b"", runs)

    cold_tables, cold_metrics, cold_runs = passes["cold"]
    warm_tables, warm_metrics, warm_runs = passes["warm"]
    hits = sum(run.stats.hits for run in warm_runs)
    cells = sum(run.stats.cells for run in warm_runs)
    outcome.check("warm rerun hits every cell", cells and hits == cells,
                  f"{hits}/{cells} hits")
    outcome.check("warm tables byte-identical", warm_tables == cold_tables)
    outcome.check("warm METRICS byte-identical",
                  warm_metrics == cold_metrics)
    outcome.outputs = {"tables": sha256(cold_tables),
                       "metrics": sha256(cold_metrics)}
    for run in cold_runs:
        for spec in run.results:
            config = MACRO_BY_KEY.get(spec.workload)
            if spec.kind == "macro" and config.kind == "throughput":
                outcome.requests += config.requests
    return outcome


# ------------------------------------------------------------- loadtest-model


def loadtest_model(ctx: Context) -> Outcome:
    from repro.tools import loadtest

    outcome = Outcome()
    report = ctx.tmp / "METRICS_slo.json"
    requests = LOADTEST_REQUESTS // 10 if ctx.small else LOADTEST_REQUESTS
    first = len(ctx.runs)
    status, _out, err = call(loadtest.main, [
        "--workload", "nginx", "--mechanisms", "native,K23-ultra",
        "--requests", str(requests), "--queue-limit",
        str(LOADTEST_QUEUE_LIMIT), "--serve-mode", "model", "--jobs",
        str(ctx.jobs), "--seed", str(ctx.variant), "--out", str(report)])
    for run in ctx.runs[first:]:
        outcome.cells += run.stats.cells
        outcome.cells_failed += run.stats.failures
    if not outcome.check("loadtest exit 0", status == 0, _tail(err)):
        return outcome
    data = report.read_bytes()
    doc = json.loads(data)
    for name, section in sorted(doc["mechanisms"].items()):
        totals = section["totals"]
        outcome.requests += totals["offered"]
        outcome.check(f"{name} sheds on the top stages",
                      totals["shed"] > 0 and
                      totals["completed"] + totals["shed"]
                      == totals["offered"], json.dumps(totals))
    outcome.outputs = {"slo_report": sha256(data)}
    return outcome


# --------------------------------------------------------- conformance-replay


def conformance_replay(ctx: Context) -> Outcome:
    from repro.replay.seqstream import canonical_suffix, load_jsonl
    from repro.tools import conformance, replay

    outcome = Outcome()
    artifact = ctx.tmp / "CONFORMANCE_matrix.json"
    argv = ["--out", str(artifact)]
    argv += (["--smoke", "--mechanisms", "native", "K23-ultra"] if ctx.small
             else ["--seed", str(1 + 5 * ctx.variant)])
    status, _out, err = call(conformance.main, argv)
    outcome.check("conformance exit 0 (every cell conformant)",
                  status == 0, _tail(err))
    if artifact.exists():
        doc = json.loads(artifact.read_text())
        verdicts = [{key: cell[key] for key in (
            "mechanism", "workload", "seed", "ok", "divergences",
            "injections", "schedule_sha")} for cell in doc["cells"]]
        outcome.outputs["verdicts"] = sha256(json.dumps(verdicts))
        oracle_cells = len(doc["workloads"]) * len(doc["seeds"])
        outcome.cells += len(doc["cells"]) + oracle_cells
        outcome.cells_failed += sum(1 for cell in doc["cells"]
                                    if not cell["ok"])
        outcome.requests += sum(cell["counters"]["events"].get(
            "SyscallEnter", 0) for cell in doc["cells"])

    bundle = ctx.tmp / "bundle"
    with ctx.span("replay.record", "replay"):
        status, out, err = call(replay.main, [
            "--record", "--bundle", str(bundle), "--mechanism", "K23-ultra",
            "--workload", "stress", "--seed", str(7 + ctx.variant),
            "--iterations", "60" if ctx.small else "150",
            "--errno-rate", "0.05", "--fault-signals", "2", "--json"])
    outcome.cells += 1
    if not outcome.check("record exit 0", status == 0, _tail(err)):
        outcome.cells_failed += 1
        return outcome
    recorded = _last_json(out)
    recorded.pop("bundle", None)
    # The comparable subset, as replay compares it: engine-tier counters
    # (EngineStats) may change with a faster engine, semantics may not.
    events = canonical_suffix(load_jsonl(str(bundle / "events.jsonl")))
    outcome.outputs["recording"] = sha256(json.dumps([recorded, events],
                                                     sort_keys=True))

    replays = []
    for to_seq in (None, recorded.get("final_seq", 0) // 2):
        argv = ["--bundle", str(bundle), "--json"]
        if to_seq is not None:
            argv += ["--to-seq", str(to_seq)]
        status, out, err = call(replay.main, argv)
        outcome.cells += 1
        label = "full replay" if to_seq is None else "midpoint replay"
        result = _last_json(out)
        ok = status == 0 and result.get("ok") and result.get("compared", 0)
        if not outcome.check(f"{label} byte-identical", ok,
                             _tail(out + err)):
            outcome.cells_failed += 1
        result.pop("bundle", None)
        replays.append(result)
    outcome.outputs["replays"] = sha256(json.dumps(replays, sort_keys=True))
    return outcome


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "matrix-cold": matrix_cold,
    "loadtest-model": loadtest_model,
    "conformance-replay": conformance_replay,
}

#: The CLI module each workload drives (imported before set-up ends, as a
#: user's ``python -m`` would).
TOOL_MODULES = {
    "matrix-cold": ("repro.tools.evalrun",),
    "loadtest-model": ("repro.tools.loadtest",),
    "conformance-replay": ("repro.tools.conformance", "repro.tools.replay"),
}

#: Jobs per workload for the end-to-end runs; traced runs are serial.
JOBS = {"matrix-cold": 2, "loadtest-model": 1, "conformance-replay": 1}
