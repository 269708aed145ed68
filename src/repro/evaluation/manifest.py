"""Which command writes each committed file under ``benchmarks/output/``.

Every command runs from the repository root with ``PYTHONPATH=src``.  A
``pytest`` command writes every artifact of its module.  Under
``--smoke`` the benchmark modules write the two ``*.smoke.txt`` tables
and every artifact whose protocol does not shrink; the full-matrix
tables need the full run.

The CLIs write their artifact into ``benchmarks/output/`` relative to
the working directory unless told otherwise, so :func:`output_refusal`
keeps a differently configured run from replacing a committed file.
"""

import argparse
from typing import Dict, Iterable, Optional

_PYTEST = "python -m pytest benchmarks/"

#: Repository-relative artifact path → the one command that writes it.
ARTIFACTS: Dict[str, str] = {
    "benchmarks/output/BENCH_interp.json":
        "python benchmarks/bench_interp_speed.py",
    "benchmarks/output/CONFORMANCE_matrix.json":
        "python -m repro conformance",
    "benchmarks/output/METRICS_slo.json": "python -m repro loadtest",
    "benchmarks/output/METRICS_table5.json": "python -m repro evalrun table5",
    "benchmarks/output/ablation_augment.txt":
        _PYTEST + "bench_ablation_coverage.py",
    "benchmarks/output/ablation_checks.txt":
        _PYTEST + "bench_ablation_checks.py",
    "benchmarks/output/ablation_coverage.txt":
        _PYTEST + "bench_ablation_coverage.py",
    "benchmarks/output/ablation_offline_value.txt":
        _PYTEST + "bench_ablation_offline_value.py",
    "benchmarks/output/arm64_portability.txt":
        _PYTEST + "bench_arm64_portability.py",
    **{f"benchmarks/output/decomposition_{name}.txt":
       _PYTEST + "bench_decomposition.py"
       for name in ("K23-default", "K23-ultra", "SUD", "lazypoline",
                    "zpoline-default")},
    **{f"benchmarks/output/figure{number}.txt": _PYTEST + "bench_figures.py"
       for number in (1, 2, 3, 4)},
    "benchmarks/output/p4b_memory.txt": _PYTEST + "bench_p4b_memory.py",
    "benchmarks/output/report.md": "python -m repro evalrun report",
    "benchmarks/output/sensitivity.txt": _PYTEST + "bench_sensitivity.py",
    "benchmarks/output/table2.txt": _PYTEST + "bench_table2_offline_sites.py",
    "benchmarks/output/table3.txt": _PYTEST + "bench_table3_pitfalls.py",
    "benchmarks/output/table4.txt": _PYTEST + "bench_table4_variants.py",
    "benchmarks/output/table5.txt": _PYTEST + "bench_table5_micro.py",
    "benchmarks/output/table5.smoke.txt":
        _PYTEST + "bench_table5_micro.py --smoke",
    "benchmarks/output/table6.txt": _PYTEST + "bench_table6_macro.py",
    **{f"benchmarks/output/table6_{key}.txt": _PYTEST + "bench_table6_macro.py"
       for key in ("lighttpd-10w-0k", "lighttpd-10w-4k", "lighttpd-1w-0k",
                   "lighttpd-1w-4k", "nginx-10w-0k", "nginx-10w-4k",
                   "nginx-1w-0k", "nginx-1w-4k", "redis-1t", "redis-6t",
                   "sqlite")},
    "benchmarks/output/table6_redis-1t.smoke.txt":
        _PYTEST + "bench_table6_macro.py --smoke",
}


def output_refusal(parser: argparse.ArgumentParser, args: argparse.Namespace,
                   artifact: object, neutral: Iterable[str],
                   out_flag: str = "--out") -> Optional[str]:
    """Why a run that parsed *args* may not write *artifact*, a committed
    file, at its default path; ``None`` when it may.

    The committed bytes are what the file's command in :data:`ARTIFACTS`
    writes, and those commands pass no content option.  So a run may
    write the file only while every option of *parser* outside *neutral*
    (the destinations of options that change nothing in the file, such
    as ``--jobs``) keeps its default value.  Any other run must name its
    own output with *out_flag*; the CLI then exits 2 with this message,
    which names the file and the options that would change it."""
    neutral = set(neutral)
    changed = [action.option_strings[0] for action in parser._actions
               if action.option_strings and action.dest not in neutral
               and action.default is not argparse.SUPPRESS
               and getattr(args, action.dest) != action.default]
    if not changed:
        return None
    return (f"{', '.join(changed)} would change {artifact}, a committed "
            f"artifact; pass {out_flag} FILE to write the output elsewhere")
