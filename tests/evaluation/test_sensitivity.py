"""Sensitivity-analysis tests: the measured model equals the simulator
at the calibration point and at a perturbed one, and the paper's orderings
survive perturbation."""

import pytest

from repro.cpu.cycles import DEFAULT_COSTS
from repro.evaluation.runner import measure_micro_cycles
from repro.evaluation.sensitivity import (
    MULTIPLIERS,
    SWEPT_CONSTANTS,
    analytic_micro,
    invariants_hold,
    render_sweep,
    sweep,
)

MECHANISMS = ("native", "zpoline-default", "zpoline-ultra", "lazypoline",
              "K23-default", "K23-ultra", "K23-ultra+",
              "SUD-no-interposition", "SUD")

#: Every calibrated cost moved at once, each by a different amount.
PERTURBED = {event: cost * 3 // 2 + 1 + index
             for index, (event, cost) in enumerate(DEFAULT_COSTS.items())}


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_analytic_model_matches_simulator(mechanism, monkeypatch):
    """The measured per-call model equals the simulator exactly, at the
    calibration point and with every cost moved (the model's purpose:
    trustworthy sweeps)."""
    calibrated = analytic_micro(DEFAULT_COSTS)[mechanism]
    assert calibrated == measure_micro_cycles(mechanism)
    perturbed = analytic_micro(PERTURBED)[mechanism]
    for event, cost in PERTURBED.items():
        monkeypatch.setitem(DEFAULT_COSTS, event, cost)
    assert perturbed == measure_micro_cycles(mechanism)


def test_invariants_hold_at_calibration_point():
    assert invariants_hold(analytic_micro(DEFAULT_COSTS)) == []


def test_sweep_covers_declared_grid():
    results = sweep()
    assert len(results) == len(SWEPT_CONSTANTS) * len(MULTIPLIERS)


def test_orderings_survive_halving_and_doubling():
    """The headline robustness claim: no ordering invariant breaks when any
    single calibrated constant is halved or doubled."""
    for event, multiplier, violations in sweep():
        assert violations == [], (event, multiplier, violations)


def test_render_reports_clean_sweep():
    text = render_sweep(sweep())
    assert "all invariants hold at every point." in text
