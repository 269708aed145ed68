"""Renderers for the paper's tables.

Each ``render_*`` function takes measured data and returns the table as
text, with the paper's reference numbers alongside for direct comparison
(the material EXPERIMENTS.md records).  :func:`table2_site_counts`
measures Table 2; :mod:`repro.evaluation.pipeline` measures Tables 5
and 6.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.evaluation.stats import (
    MACRO_SIGMA,
    MICRO_SIGMA,
    RepeatedMeasurement,
)

#: Paper Table 5 reference values.
PAPER_TABLE5: Dict[str, float] = {
    "zpoline-default": 1.1267,
    "zpoline-ultra": 1.1576,
    "lazypoline": 1.3801,
    "K23-default": 1.2788,
    "K23-ultra": 1.3919,
    "K23-ultra+": 1.3948,
    "SUD-no-interposition": 1.2269,
    "SUD": 15.3022,
}

#: Paper Table 2 reference values (program basename → unique sites).
PAPER_TABLE2: Dict[str, int] = {
    "pwd": 7,
    "touch": 9,
    "ls": 10,
    "cat": 11,
    "clear": 13,
    "speedtest1": 20,  # sqlite
    "nginx": 43,
    "lighttpd": 44,
    "redis-server": 92,
}


#: Table 2's nine programs, as :data:`repro.runapi.WORKLOADS` keys.
TABLE2_WORKLOADS = ("pwd", "touch", "ls", "cat", "clear", "sqlite", "nginx",
                    "lighttpd", "redis")


def table2_site_counts() -> Dict[str, int]:
    """Unique sites each Table 2 program's K23 offline phase logged, by
    program path, fewest first (the paper's order)."""
    from repro import runapi

    counts = {path: len(text.splitlines())
              for workload in TABLE2_WORKLOADS
              for path, text in runapi.offline_logs(workload).items()}
    return dict(sorted(counts.items(), key=lambda item: item[1]))


def render_table2(site_counts: Dict[str, int]) -> str:
    """Table 2: unique syscall sites logged during the offline phase."""
    lines = ["Application        | #Instructions | paper",
             "-------------------+---------------+------"]
    for path, count in site_counts.items():
        base = path.rsplit("/", 1)[-1]
        paper = PAPER_TABLE2.get(base, "-")
        lines.append(f"{base:<19}| {count:>13} | {paper}")
    return "\n".join(lines)


def render_table4() -> str:
    """Table 4: variant catalogue."""
    from repro.core.config import variant_table

    return variant_table()


def render_table5(overheads: Dict[str, float], runs: int = 10,
                  seed: int = 77) -> str:
    """Table 5: microbenchmark overheads with the 10-run protocol."""
    lines = ["Interposer             | Overhead              | paper",
             "-----------------------+-----------------------+--------"]
    for index, (name, value) in enumerate(overheads.items()):
        cell = RepeatedMeasurement(value, runs=runs, sigma=MICRO_SIGMA,
                                   seed=seed + index)
        paper = PAPER_TABLE5.get(name)
        paper_text = f"{paper:.4f}x" if paper else "-"
        lines.append(
            f"{name:<23}| {cell.geomean:7.4f}x (+/-{cell.std_pct:.3f}%) "
            f"| {paper_text}")
    return "\n".join(lines)


def render_table6(rows: List[Dict], runs: int = 10, seed: int = 99) -> str:
    """Table 6: macrobenchmark relative throughput/runtime.

    ``rows``: list of dicts with keys ``label``, ``native`` (req/s or
    None), ``relative`` (mechanism → percent), ``paper_native``,
    ``paper_relative``.
    """
    mechanisms = [name for name in rows[0]["relative"] if name != "native"]
    header = f"{'Application (workload)':<30} {'Native':>12}"
    for name in mechanisms:
        header += f" {name:>21}"
    lines = [header, "-" * len(header)]
    geo: Dict[str, List[float]] = {name: [] for name in mechanisms}
    for row_index, row in enumerate(rows):
        native = row["native"]
        native_text = f"{native:,.0f}" if native else "N/A"
        line = f"{row['label']:<30} {native_text:>12}"
        for col_index, name in enumerate(mechanisms):
            cell = RepeatedMeasurement(
                row["relative"][name], runs=runs, sigma=MACRO_SIGMA,
                seed=seed + 31 * row_index + col_index)
            paper = (row.get("paper_relative") or {}).get(name)
            paper_text = f"/{paper:.2f}" if paper is not None else ""
            line += f" {cell.geomean:7.2f}%{paper_text:>9}"
            geo[name].append(cell.geomean)
        lines.append(line)
    from repro.evaluation.stats import geomean as _geomean

    footer = f"{'geomean':<30} {'N/A':>12}"
    for name in mechanisms:
        footer += f" {_geomean(geo[name]):7.2f}%{'':>9}"
    lines.append("-" * len(header))
    lines.append(footer)
    lines.append("")
    lines.append("(cells: measured% / paper%)")
    return "\n".join(lines)
