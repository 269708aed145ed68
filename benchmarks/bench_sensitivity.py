"""Sensitivity sweep — robustness of the reproduced conclusions.

Perturbs every calibrated cycle-model constant by 0.5×–2× and re-derives
the microbenchmark; the paper's ordering invariants (zpoline fastest,
K23-default < lazypoline, the armed-SUD floor, the SUD collapse) must hold
at every point.  See ``repro/evaluation/sensitivity.py``.
"""

from repro.evaluation.sensitivity import render_sweep, sweep


def test_sensitivity_sweep(save_artifact):
    results = sweep()
    text = render_sweep(results)
    save_artifact("sensitivity.txt", text)
    assert all(not violations for _e, _m, violations in results)
