"""Table 3 — the pitfall matrix: zpoline / lazypoline / K23 vs P1a–P5."""

from repro.pitfalls import pitfall_matrix, render_table3
from repro.pitfalls.matrix import PAPER_TABLE3, matches_paper


def test_table3_matrix(save_artifact):
    outcomes = pitfall_matrix()
    text = render_table3(outcomes, show_evidence=True)
    save_artifact("table3.txt", text)
    assert matches_paper(outcomes)
    # Every cell present: 9 pitfalls × 3 interposers.
    assert len(outcomes) == len(PAPER_TABLE3) * 3
