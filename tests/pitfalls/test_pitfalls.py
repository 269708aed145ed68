"""Pitfall PoC tests: each cell of Table 3, plus the native baselines."""

import pytest

from repro.pitfalls import (
    K23_KIT,
    LAZYPOLINE_KIT,
    NATIVE_KIT,
    PITFALL_IDS,
    ZPOLINE_KIT,
    evaluate_pitfall,
)
from repro.pitfalls.matrix import PAPER_TABLE3, pitfall_matrix, matches_paper, render_table3
from tests.simutil import TIERS, select_tier

KITS = {"zpoline": ZPOLINE_KIT, "lazypoline": LAZYPOLINE_KIT, "K23": K23_KIT}


@pytest.mark.parametrize("pitfall", PITFALL_IDS)
@pytest.mark.parametrize("kit_name", list(KITS))
def test_matrix_cell_matches_paper(pitfall, kit_name):
    """Every (pitfall, interposer) cell reproduces the paper's Table 3."""
    outcome = evaluate_pitfall(pitfall, KITS[kit_name])
    expected = PAPER_TABLE3[pitfall][kit_name]
    assert outcome.handled == expected, outcome.evidence


class TestNativeBaselines:
    """Sanity-check the PoCs against native execution: the programs
    themselves must behave as designed before any interposer touches them."""

    def test_p3a_data_intact_natively(self):
        outcome = evaluate_pitfall("P3a", NATIVE_KIT)
        assert outcome.handled

    def test_p3b_data_intact_natively(self):
        outcome = evaluate_pitfall("P3b", NATIVE_KIT)
        assert outcome.handled

    def test_p4a_null_call_faults_natively(self):
        """Without a trampoline the NULL call crashes — the classic
        behaviour P4a destroys."""
        outcome = evaluate_pitfall("P4a", NATIVE_KIT)
        assert outcome.handled  # handled == "did not survive"
        assert "SURVIVED" not in outcome.evidence

    def test_p5_threads_survive_natively(self):
        outcome = evaluate_pitfall("P5", NATIVE_KIT)
        assert outcome.handled


class TestEvidenceQuality:
    def test_p4b_reports_bitmap_reservation(self):
        outcome = evaluate_pitfall("P4b", ZPOLINE_KIT)
        assert "TiB" in outcome.evidence

    def test_p4b_reports_hashset_size(self):
        outcome = evaluate_pitfall("P4b", K23_KIT)
        assert "hash set" in outcome.evidence

    def test_p5_lazypoline_names_torn_instruction(self):
        outcome = evaluate_pitfall("P5", LAZYPOLINE_KIT)
        assert not outcome.handled
        assert "torn" in outcome.evidence

    def test_unknown_pitfall_rejected(self):
        with pytest.raises(ValueError):
            evaluate_pitfall("P9", ZPOLINE_KIT)


def test_full_matrix_matches_paper():
    outcomes = pitfall_matrix()
    assert matches_paper(outcomes)
    rendered = render_table3(outcomes)
    assert "!" not in rendered  # no divergence markers


@pytest.mark.parametrize("tier", [tier for tier in TIERS
                                  if tier != "trace-jit"])
def test_full_matrix_matches_paper_in_every_tier(tier, monkeypatch):
    """The PoCs (P5's stale decodes among them) run through each tier's
    executor; the tests above run whichever tier the environment
    selects."""
    select_tier(monkeypatch, tier)
    assert matches_paper(pitfall_matrix())


def test_render_with_evidence():
    outcomes = pitfall_matrix(pitfalls=("P1b",))
    text = render_table3(outcomes, show_evidence=True)
    assert "P1b" in text and "[P1b/zpoline]" in text
