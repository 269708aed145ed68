"""Full reproduction report generator.

``python -m repro evalrun report`` regenerates every table and figure and
writes a single self-contained markdown report (paper-vs-measured, with
the per-cell evidence) to :data:`REPORT_PATH` — the machine-written
counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional

from repro.evaluation import pipeline as pipe
from repro.evaluation.cache import ResultCache
from repro.evaluation.tables import (PAPER_TABLE5, render_table2,
                                     render_table4, table2_site_counts)

REPORT_PATH = Path("benchmarks/output/report.md")


def generate_report(out: Optional[io.TextIOBase] = None, jobs: int = 1,
                    cache: Optional[ResultCache] = None) -> str:
    """Run everything; returns (and optionally streams) the markdown.

    Tables 5 and 6 go through one parallel, memoized pipeline run
    (*jobs* worker processes, *cache* for cross-run memoization); the
    rendered text is identical to a serial run either way.
    """
    from repro.evaluation.figures import render_figure
    from repro.pitfalls import pitfall_matrix, render_table3
    from repro.pitfalls.matrix import matches_paper

    buffer = io.StringIO()

    def emit(text: str = "") -> None:
        buffer.write(text + "\n")
        if out is not None:
            out.write(text + "\n")
            out.flush()

    emit("# K23 reproduction report (auto-generated)")
    emit()
    emit("Every number below was regenerated by this run; paper values are")
    emit("shown alongside.  See EXPERIMENTS.md for the curated analysis.")

    emit("\n## Table 2 — offline-phase unique syscall sites\n")
    emit("```")
    emit(render_table2(table2_site_counts()))
    emit("```")

    emit("\n## Table 3 — pitfall matrix\n")
    outcomes = pitfall_matrix()
    emit("```")
    emit(render_table3(outcomes, show_evidence=True))
    emit("```")
    emit(f"\nMatches the paper exactly: **{matches_paper(outcomes)}**")

    emit("\n## Table 4 — variants\n")
    emit("```")
    emit(render_table4())
    emit("```")

    emit("\n## Table 5 — microbenchmark overheads\n")
    matrix = pipe.run_matrix(jobs=jobs, cache=cache)
    table5 = matrix.table5.checked()
    overheads = table5.rows
    emit("```")
    emit(table5.text)
    emit("```")
    worst = max(abs(overheads[name] - PAPER_TABLE5[name]) / PAPER_TABLE5[name]
                for name in PAPER_TABLE5)
    emit(f"\nWorst per-row deviation from the paper: **{100 * worst:.2f}%**")

    emit("\n## Table 6 — macrobenchmarks\n")
    emit("```")
    emit(matrix.table6.checked().text)
    emit("```")

    for number in (1, 2, 3, 4):
        emit(f"\n## Figure {number}\n")
        emit("```")
        emit(render_figure(number))
        emit("```")

    return buffer.getvalue()
