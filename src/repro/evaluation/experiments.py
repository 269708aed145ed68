"""Experiment CLI: regenerate any table or figure from the paper.

Usage::

    python -m repro.evaluation.experiments table2
    python -m repro.evaluation.experiments table3
    python -m repro.evaluation.experiments table4
    python -m repro.evaluation.experiments table5 [--jobs N] [--no-cache]
    python -m repro.evaluation.experiments table6 [row-key ...] [--jobs N]
    python -m repro.evaluation.experiments figure1|figure2|figure3|figure4
    python -m repro.evaluation.experiments all [--jobs N] [--smoke]

The measurement matrices (table5/table6) run on the parallel, memoized
pipeline (:mod:`repro.evaluation.pipeline`): ``--jobs N`` fans cells out
over N worker processes, results are memoized content-addressed under
``~/.cache/repro-eval`` (``--no-cache`` disables, ``$REPRO_EVAL_CACHE``
relocates), and ``--smoke`` shrinks the matrix to two mechanisms with tiny
iteration counts.  Output is byte-identical to a serial, uncached run;
cache hit/miss accounting goes to stderr.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional

from repro.core import OfflinePhase
from repro.evaluation import figures
from repro.evaluation import pipeline as pipe
from repro.evaluation.cache import ResultCache
from repro.evaluation.runner import (
    MACRO_BY_KEY,
    MACRO_CONFIGS,
    macro_results,
    micro_overheads,
)
from repro.interposers.registry import REGISTRY
from repro.evaluation.tables import (
    render_table2,
    render_table4,
    render_table5,
    render_table6,
)
from repro.kernel import Kernel
from repro.workloads.clients import redis_benchmark, wrk
from repro.workloads.coreutils import install_coreutils
from repro.workloads.lighttpd import LIGHTTPD_PORT, install_lighttpd
from repro.workloads.nginx import NGINX_PORT, install_nginx
from repro.workloads.redis import REDIS_PORT, install_redis
from repro.workloads.sqlite import install_sqlite


def run_table2(seed: int = 12) -> str:
    """Offline-phase unique-site counts for all nine programs."""
    counts: Dict[str, int] = {}
    # Coreutils: plain runs.
    kernel = Kernel(seed=seed)
    paths = install_coreutils(kernel)
    offline = OfflinePhase(kernel)
    for path in paths:
        _proc, log = offline.run(path)
        counts[path] = len(log)
    # sqlite.
    kernel = Kernel(seed=seed)
    sqlite_path = install_sqlite(kernel)
    offline = OfflinePhase(kernel)
    _proc, log = offline.run(sqlite_path, max_steps=20_000_000)
    counts[sqlite_path] = len(log)
    # Servers, driven with representative workloads.
    server_specs = [
        (lambda k: install_nginx(k, 1, 0), NGINX_PORT, wrk),
        (lambda k: install_lighttpd(k, 1, 0), LIGHTTPD_PORT, wrk),
        (lambda k: install_redis(k, 1), REDIS_PORT, redis_benchmark),
    ]
    for installer, port, client_factory in server_specs:
        kernel = Kernel(seed=seed)
        path = installer(kernel)
        offline = OfflinePhase(kernel)

        def driver(kern, proc, _port=port, _factory=client_factory):
            kern.run(max_steps=600_000)
            generator = _factory(kern, _port, 1)
            generator.drive(12)
            generator.close()

        _proc, log = offline.run(path, driver=driver, max_steps=20_000_000)
        counts[path] = len(log)
    # Order as in the paper (coreutils by count, then apps).
    ordered = dict(sorted(counts.items(), key=lambda kv: kv[1]))
    return render_table2(ordered)


def run_table3(show_evidence: bool = True) -> str:
    from repro.pitfalls import pitfall_matrix, render_table3

    return render_table3(pitfall_matrix(), show_evidence=show_evidence)


def run_table4() -> str:
    return render_table4()


def run_table5(jobs: int = 1, cache: Optional[ResultCache] = None,
               smoke: bool = False, echo_stats: bool = False) -> str:
    """Table 5 through the pipeline — byte-identical to the serial path."""
    if smoke:
        low, high = pipe.SMOKE_MICRO_ITERATIONS
        mechanisms = pipe.SMOKE_MECHANISMS
        specs = pipe.micro_specs(mechanisms, iterations_low=low,
                                 iterations_high=high)
    else:
        mechanisms = REGISTRY.names()
        specs = pipe.micro_specs(mechanisms)
    run = pipe.run_cells(specs, jobs=jobs, cache=cache)
    if echo_stats:
        print(f"table5 pipeline: {run.stats.summary()}", file=sys.stderr)
    return render_table5(pipe.table5_overheads(run, mechanisms[1:]))


def run_table6(keys: "List[str] | None" = None, jobs: int = 1,
               cache: Optional[ResultCache] = None, smoke: bool = False,
               echo_stats: bool = False) -> str:
    """Table 6 through the pipeline — byte-identical to the serial path."""
    mechanisms = pipe.SMOKE_MECHANISMS if smoke else REGISTRY.names()
    if keys is None and smoke:
        keys = list(pipe.SMOKE_MACRO_KEYS)
    specs = pipe.macro_specs(keys, mechanisms)
    run = pipe.run_cells(specs, jobs=jobs, cache=cache)
    if echo_stats:
        print(f"table6 pipeline: {run.stats.summary()}", file=sys.stderr)
    return render_table6(pipe.table6_rows(run, keys, mechanisms))


def run_table6_serial(keys: "List[str] | None" = None) -> str:
    """The original in-process serial path (kept as the equivalence
    oracle for the pipeline tests)."""
    rows = []
    for config in MACRO_CONFIGS:
        if keys and config.key not in keys:
            continue
        results = macro_results(config)
        rows.append({
            "label": config.label,
            "native": results["native"].get("throughput"),
            "relative": {name: results[name]["relative_pct"]
                         for name in REGISTRY.names() if name != "native"},
            "paper_relative": config.paper_relative,
        })
    return render_table6(rows)


def run_figure1() -> str:
    return figures.figure1()


def run_figure2() -> str:
    return figures.figure2()


def run_figure3() -> str:
    path, contents = figures.figure3()
    return (f"Figure 3: log file generated for ls ({path}):\n\n"
            + contents)


def run_figure4() -> str:
    return figures.figure4()


def run_report(jobs: int = 1, cache: Optional[ResultCache] = None) -> str:
    """Regenerate everything into one markdown report (also written to
    benchmarks/output/report.md when that directory exists)."""
    import pathlib
    import sys

    from repro.evaluation.report import generate_report

    text = generate_report(out=sys.stdout, jobs=jobs, cache=cache)
    out_dir = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "output"
    if out_dir.parent.exists():
        out_dir.mkdir(exist_ok=True)
        (out_dir / "report.md").write_text(text)
    return ""


_EXPERIMENTS = {
    "report": run_report,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "figure1": run_figure1,
    "figure2": run_figure2,
    "figure3": run_figure3,
    "figure4": run_figure4,
}


def parse_pipeline_args(args: List[str]) -> Dict[str, object]:
    """Strip ``--jobs N``/``--no-cache``/``--smoke``/``--cache-dir D`` out
    of *args* (mutated in place); returns the pipeline option dict."""
    options: Dict[str, object] = {"jobs": 1, "cache": ResultCache(),
                                  "smoke": False}
    index = 0
    while index < len(args):
        arg = args[index]
        if arg == "--jobs" and index + 1 < len(args):
            options["jobs"] = max(1, int(args[index + 1]))
            del args[index:index + 2]
        elif arg.startswith("--jobs="):
            options["jobs"] = max(1, int(arg.split("=", 1)[1]))
            del args[index]
        elif arg == "--no-cache":
            options["cache"] = None
            del args[index]
        elif arg == "--smoke":
            options["smoke"] = True
            del args[index]
        elif arg == "--cache-dir" and index + 1 < len(args):
            options["cache"] = ResultCache(args[index + 1])
            del args[index:index + 2]
        elif arg.startswith("--cache-dir="):
            options["cache"] = ResultCache(arg.split("=", 1)[1])
            del args[index]
        else:
            index += 1
    return options


def main(argv: "List[str] | None" = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    options = parse_pipeline_args(args)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    jobs = options["jobs"]
    cache = options["cache"]
    smoke = options["smoke"]
    pipelined = {
        "table5": lambda: run_table5(jobs=jobs, cache=cache, smoke=smoke,
                                     echo_stats=True),
        "table6": lambda: run_table6(jobs=jobs, cache=cache, smoke=smoke,
                                     echo_stats=True),
        "report": lambda: run_report(jobs=jobs, cache=cache),
    }
    target = args[0]
    if target == "all":
        for name, runner in _EXPERIMENTS.items():
            print(f"\n=== {name} " + "=" * (66 - len(name)))
            print(pipelined.get(name, runner)())
        return 0
    runner = _EXPERIMENTS.get(target)
    if runner is None:
        print(f"unknown experiment {target!r}; "
              f"choose from {', '.join(_EXPERIMENTS)} or 'all'")
        return 2
    if target == "table6" and len(args) > 1:
        for key in args[1:]:
            if key not in MACRO_BY_KEY:
                print(f"unknown table6 row {key!r}; "
                      f"rows: {', '.join(MACRO_BY_KEY)}")
                return 2
        print(run_table6(args[1:], jobs=jobs, cache=cache,
                         echo_stats=True))
        return 0
    print(pipelined.get(target, runner)())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
