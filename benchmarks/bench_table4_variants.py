"""Table 4 — evaluated variants of zpoline and K23."""

from repro.core.config import K23_VARIANTS, ZPOLINE_VARIANTS, variant_table


def test_table4_variants(save_artifact):
    text = variant_table()
    save_artifact("table4.txt", text)
    assert len(ZPOLINE_VARIANTS) == 2
    assert len(K23_VARIANTS) == 3
    assert "NULL Execution Check & Stack Switch" in text
