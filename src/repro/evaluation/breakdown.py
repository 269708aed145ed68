"""Where-the-cycles-went decomposition.

Any run can be decomposed into its cost sources — the analysis §6.2.1 does
narratively ("the performance degradation ... stems primarily from relying
on SUD as a fallback mechanism") becomes a table.  Used by the
microbenchmark analysis bench and available for any workload.

The decomposition is driven entirely by the instrumentation bus
(:mod:`repro.observability`): a :class:`~repro.observability.sinks.CounterSink`
listens for the whole run, so modelled charges (``CycleCharge``) and raw
charges (``RawCycles``, e.g. ``io-data-copy`` / ``sud-contention``) are
both attributed.  That makes the accounting *exact*: the sum of every
column equals the cycle-counter delta, with no residual — the invariant
``tests/evaluation/test_breakdown_invariant.py`` pins for every mechanism,
with and without fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

from repro.cpu.cycles import Event


@dataclass(frozen=True)
class Decomposition:
    """Differential cycle attribution for one mechanism.

    Attributes:
        mechanism: registry name the run was interposed with.
        rows: modelled cycle-model events → ``(count, cycles)``.
        raw: raw-charge labels (``io-data-copy`` ...) → ``(charges, cycles)``.
        total: cycle-counter delta between the two runs — the ground truth
            the columns must sum to.
    """

    mechanism: str
    rows: Dict[Event, Tuple[int, int]] = field(default_factory=dict)
    raw: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    total: int = 0

    @property
    def columns_total(self) -> int:
        """Sum of every attributed column (modelled + raw)."""
        return (sum(cycles for _n, cycles in self.rows.values())
                + sum(cycles for _n, cycles in self.raw.values()))

    @property
    def residual(self) -> int:
        """Cycles the columns fail to account for — zero by invariant."""
        return self.total - self.columns_total


def _counts_for(name: str, iterations: int, seed: int,
                fault_config=None, fault_seed: int = 0,
                extra_sinks: Tuple = ()):
    """One stress run under *name* with a CounterSink attached for its whole
    lifetime; returns ``(sink, final cycle counter)``.  *extra_sinks*
    (e.g. a :class:`~repro.observability.analyzers.LatencyAnalyzer`)
    listen over the same run."""
    from repro.evaluation.runner import micro_run_config
    from repro.faultinject.schedule import build_schedule
    from repro.runapi import prepare

    schedule = None
    if fault_config is not None:
        schedule = build_schedule(fault_seed, fault_config)
    prepared = prepare(replace(micro_run_config(name, iterations, seed),
                               schedule=schedule, sinks=extra_sinks))
    result = prepared.execute()
    if not result.ok:
        faults = ("" if fault_config is None
                  else f", fault_seed={fault_seed}")
        raise RuntimeError(
            f"decomposition run failed: stress under {name}, seed={seed}, "
            f"iterations={iterations}{faults}: "
            f"exit={result.exit_status}")
    return prepared.counters, prepared.kernel.cycles.cycles


def decompose(name: str, iterations: int = 800, seed: int = 85,
              fault_config=None, fault_seed: int = 0) -> Decomposition:
    """Differential decomposition, like Table 5's measurement: two runs
    with different iteration counts, subtracted — one-time startup costs
    (the K23 ptrace stage, zpoline's load-time rewrites) cancel and only
    the per-call regime remains.

    Pass a :class:`~repro.faultinject.schedule.FaultConfig` to decompose a
    fault-injected run; the accounting invariant holds there too (a SIGSYS
    landing inside an interposer critical window is deferred, not
    double-charged — see ``Kernel.deliver_signal``).
    """
    low_sink, low_total = _counts_for(name, iterations // 4, seed,
                                      fault_config, fault_seed)
    high_sink, high_total = _counts_for(name, iterations + iterations // 4,
                                        seed, fault_config, fault_seed)
    rows: Dict[Event, Tuple[int, int]] = {}
    for event in Event:
        count = (high_sink.charge_counts[event.value]
                 - low_sink.charge_counts[event.value])
        cycles = (high_sink.charge_cycles[event.value]
                  - low_sink.charge_cycles[event.value])
        if count or cycles:
            rows[event] = (count, cycles)
    raw: Dict[str, Tuple[int, int]] = {}
    for label in sorted(set(high_sink.raw_cycles) | set(low_sink.raw_cycles)):
        count = high_sink.raw_counts[label] - low_sink.raw_counts[label]
        cycles = high_sink.raw_cycles[label] - low_sink.raw_cycles[label]
        if count or cycles:
            raw[label] = (count, cycles)
    return Decomposition(mechanism=name, rows=rows, raw=raw,
                         total=high_total - low_total)


def run_decomposed(name: str, iterations: int = 800, seed: int = 85
                   ) -> Dict[Event, Tuple[int, int]]:
    """Steady-state per-event ``(count, cycles)`` for *iterations* of the
    stress loop under mechanism *name* (the modelled-event view of
    :func:`decompose`)."""
    return decompose(name, iterations=iterations, seed=seed).rows


def render_breakdown(name: str,
                     breakdown: Union[Decomposition,
                                      Dict[Event, Tuple[int, int]]]) -> str:
    """Render a decomposition table; accepts either the full
    :class:`Decomposition` (raw columns included) or the bare event rows."""
    if isinstance(breakdown, Decomposition):
        items = list(breakdown.rows.items()) + list(breakdown.raw.items())
        total = breakdown.total
    else:
        items = list(breakdown.items())
        total = sum(cycles for _event, (_count, cycles) in items)
    lines = [f"cycle decomposition: {name}",
             f"{'event':<24} {'count':>10} {'cycles':>12} {'share':>7}",
             "-" * 58]
    for event, (count, cycles) in sorted(items, key=lambda item: -item[1][1]):
        label = event.value if isinstance(event, Event) else event
        share = 100.0 * cycles / total if total else 0.0
        lines.append(f"{label:<24} {count:>10,} {cycles:>12,} "
                     f"{share:>6.1f}%")
    lines.append(f"{'total':<24} {'':>10} {total:>12,}")
    return "\n".join(lines)


def dominant_event(breakdown: Dict[Event, Tuple[int, int]],
                   exclude: Tuple[Event, ...] = (Event.INSTRUCTION,
                                                 Event.KERNEL_SYSCALL)
                   ) -> Optional[Event]:
    """The costliest event outside baseline execution — the mechanism's
    characteristic expense."""
    if isinstance(breakdown, Decomposition):
        breakdown = breakdown.rows
    candidates = [(cycles, event.value, event) for event, (_count, cycles)
                  in breakdown.items() if event not in exclude]
    if not candidates:
        return None
    return max(candidates)[2]
