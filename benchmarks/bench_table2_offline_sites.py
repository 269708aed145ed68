"""Table 2 — unique syscall sites logged during K23's offline phase.

Reads the per-program unique-(region, offset) counts for the five
coreutils and four applications from their offline logs, asserting exact
agreement with the paper.
"""

from repro.evaluation.tables import (PAPER_TABLE2, render_table2,
                                     table2_site_counts)
from repro.workloads.coreutils import TABLE2_COREUTILS


def test_table2_coreutils():
    counts = table2_site_counts()
    for path, count in TABLE2_COREUTILS.items():
        assert counts[path] == count, path


def test_table2_full(save_artifact):
    table = render_table2(table2_site_counts())
    save_artifact("table2.txt", table)
    for base, expected in PAPER_TABLE2.items():
        assert f"{base:<19}| {expected:>13}" in table, (base, table)
