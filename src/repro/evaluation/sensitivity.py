"""Sensitivity analysis: are the reproduced conclusions calibration-proof?

The cycle model's constants were calibrated against the paper's Table 5
(DESIGN.md §4).  A fair question is whether the *qualitative* conclusions —
who wins, where SUD collapses, which variant costs what — depend on those
exact values.  This module perturbs each calibrated constant across a
range and re-derives the microbenchmark from measured event counts: a
mechanism's per-call cycles are the sum, over the cycle-model events
its path charges, of count × cost (§6.2.1).
:func:`repro.evaluation.breakdown.decompose` measures the counts once per
process at the calibrated costs; every sweep point multiplies them by
its perturbed costs, then checks the paper's ordering invariants.
``tests/evaluation/test_sensitivity.py`` checks the model against the
simulator at the calibration point and at a perturbed one.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

from repro.cpu.cycles import DEFAULT_COSTS, Event
from repro.evaluation.breakdown import Decomposition, decompose
from repro.interposers.registry import REGISTRY

#: Stress-loop calls in each measured decomposition window.
CALLS = 800


@functools.lru_cache(maxsize=None)
def measured_decompositions() -> Tuple[Decomposition, ...]:
    """One steady-state decomposition of :data:`CALLS` stress-loop calls
    per registered mechanism, measured once per process."""
    return tuple(decompose(name, iterations=CALLS)
                 for name in REGISTRY.names())


def analytic_micro(costs: Dict[Event, int]) -> Dict[str, float]:
    """Per-call cycles for every mechanism under *costs*: its measured
    event counts times *costs*, plus its raw (uncosted) cycles."""
    return {d.mechanism: (sum(count * costs[event]
                              for event, (count, _) in d.rows.items())
                          + sum(cycles for _, cycles in d.raw.values()))
            / CALLS
            for d in measured_decompositions()}


#: The paper's qualitative claims, as ordering predicates over per-call
#: cycles.  Each must hold at every perturbation point.
def invariants_hold(per_call: Dict[str, float]) -> List[str]:
    """Returns the list of violated invariants (empty = all hold)."""
    violations = []

    def check(name: str, condition: bool) -> None:
        if not condition:
            violations.append(name)

    check("zpoline fastest interposer",
          per_call["zpoline-ultra"] < min(per_call["K23-default"],
                                          per_call["lazypoline"]))
    check("K23-default beats lazypoline",
          per_call["K23-default"] < per_call["lazypoline"])
    check("armed-SUD floor under K23",
          per_call["K23-default"] > per_call["SUD-no-interposition"])
    check("checks cost something",
          per_call["K23-ultra"] > per_call["K23-default"]
          and per_call["zpoline-ultra"] > per_call["zpoline-default"])
    check("SUD collapse (>5x everyone else)",
          per_call["SUD"] > 5 * per_call["K23-ultra+"])
    return violations


#: Constants perturbed and the multiplier range swept.
SWEPT_CONSTANTS: Tuple[Event, ...] = (
    Event.KERNEL_SYSCALL,
    Event.SUD_ARMED_SLOWPATH,
    Event.SIGNAL_DELIVERY,
    Event.SIGRETURN,
    Event.TRAMPOLINE_SLED,
    Event.ZPOLINE_HANDLER,
    Event.LAZYPOLINE_HANDLER,
    Event.K23_HANDLER,
    Event.BITMAP_CHECK,
    Event.HASHSET_CHECK,
)

MULTIPLIERS: Tuple[float, ...] = (0.5, 0.7, 1.0, 1.5, 2.0)


def sweep() -> List[Tuple[str, float, List[str]]]:
    """Perturb each constant over MULTIPLIERS; returns
    ``(event, multiplier, violations)`` triples."""
    results = []
    for event in SWEPT_CONSTANTS:
        for multiplier in MULTIPLIERS:
            costs = dict(DEFAULT_COSTS)
            costs[event] = max(1, int(costs[event] * multiplier))
            per_call = analytic_micro(costs)
            results.append((event.value, multiplier,
                            invariants_hold(per_call)))
    return results


def render_sweep(results) -> str:
    lines = ["Sensitivity: paper-ordering invariants under cost perturbation",
             f"({len(results)} points: "
             f"{len(SWEPT_CONSTANTS)} constants x {len(MULTIPLIERS)} "
             f"multipliers)", ""]
    broken = [r for r in results if r[2]]
    if not broken:
        lines.append("all invariants hold at every point.")
    else:
        for event, multiplier, violations in broken:
            lines.append(f"  {event} x{multiplier}: "
                         f"violated {', '.join(violations)}")
    return "\n".join(lines)
