"""Cycle decomposition of the Table 5 microbenchmark.

Turns §6.2.1's narrative analysis into measured tables: each mechanism's
steady-state per-call costs broken down by event, written as artifacts."""

import pytest

from repro.cpu.cycles import Event
from repro.evaluation.breakdown import (
    dominant_event,
    render_breakdown,
    run_decomposed,
)

MECHS = ("zpoline-default", "lazypoline", "K23-default", "K23-ultra", "SUD")


@pytest.mark.parametrize("name", MECHS)
def test_decompose(name, save_artifact):
    breakdown = run_decomposed(name)
    save_artifact(f"decomposition_{name}.txt",
                  render_breakdown(name, breakdown))
    if name == "SUD":
        assert dominant_event(breakdown) in (Event.SIGNAL_DELIVERY,
                                             Event.SIGRETURN)
    if name.startswith("K23") or name == "lazypoline":
        assert Event.SUD_ARMED_SLOWPATH in breakdown
    if name == "K23-ultra":
        assert Event.HASHSET_CHECK in breakdown
