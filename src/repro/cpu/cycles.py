"""The event-based cycle-cost model.

Every performance number this reproduction emits comes from here.  The model
charges cycles for *events* — instructions retired, kernel entries, signal
deliveries, ptrace stops, trampoline bodies, data-structure probes — and each
interposer incurs exactly the events its design implies.  Nothing charges
"zpoline costs X": zpoline's overhead is the sum of its call/sled/handler
events, and K23-ultra's extra cost over K23-default is literally the hash-set
probe event its entry check performs.

Calibration (once, against the paper's Table 5 on a Xeon w5-3425 @ 3.2 GHz,
Linux 6.8; see EXPERIMENTS.md):

- ``KERNEL_SYSCALL`` — round-trip for a minimal (non-existent) system call.
- ``SUD_ARMED_SLOWPATH`` — extra kernel-entry work once Syscall User Dispatch
  is initialized; this is charged on *every* syscall of a SUD-armed process,
  selector state notwithstanding, reproducing the paper's observation that
  lazypoline and K23 pay it even on rewritten fast paths
  ("SUD-no-interposition", §6.2.1).
- ``SIGNAL_DELIVERY`` / ``SIGRETURN`` — SIGSYS frame setup and the
  ``rt_sigreturn`` round trip; these dominate pure-SUD interposition (15.3×).
- ``PTRACE_STOP`` — one tracee stop + tracer wakeup (two context switches);
  a traced syscall takes two stops, plus tracer-side syscalls to inspect the
  tracee.

The absolute values are modelled; the *shape* of every comparison (ordering,
ratios, crossovers) emerges from which events each mechanism triggers.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.observability.bus import Bus
from repro.observability.events import CycleCharge, RawCycles


class Event(enum.Enum):
    """Chargeable machine events."""

    # Members are process-wide singletons (pickling resolves by name), so
    # identity hashing is correct — and the C slot avoids a Python-level
    # __hash__ frame on the costs/counts lookups the hot charge path does
    # hundreds of thousands of times per simulated second.
    __hash__ = object.__hash__

    # Baseline execution.
    INSTRUCTION = "instruction"            # one retired simulated instruction
    KERNEL_SYSCALL = "kernel_syscall"      # bare syscall entry/exit round trip
    KERNEL_SYSCALL_WORK = "kernel_work"    # per-syscall in-kernel service work

    # SUD machinery.
    SUD_ARMED_SLOWPATH = "sud_armed_slowpath"  # extra entry cost, SUD armed
    SUD_SELECTOR_WRITE = "sud_selector_write"  # one selector byte toggle
    SIGNAL_DELIVERY = "signal_delivery"        # kernel → user SIGSYS frame
    SIGRETURN = "sigreturn"                    # rt_sigreturn round trip

    # ptrace machinery.
    PTRACE_STOP = "ptrace_stop"            # tracee stop + tracer switch
    PTRACE_TRACER_WORK = "ptrace_tracer_work"  # tracer-side inspection calls

    # Rewritten fast-path bodies.
    TRAMPOLINE_SLED = "trampoline_sled"    # nop-sled traversal at address 0
    ZPOLINE_HANDLER = "zpoline_handler"    # zpoline save/dispatch/restore
    LAZYPOLINE_HANDLER = "lazypoline_handler"  # lazypoline dispatch body
    K23_HANDLER = "k23_handler"            # K23 dispatch body (rcx/r11 reuse)

    # Optional hardening features (Table 4 variants).
    BITMAP_CHECK = "bitmap_check"          # zpoline-ultra NULL-exec check
    HASHSET_CHECK = "hashset_check"        # K23-ultra NULL-exec check
    STACK_SWITCH = "stack_switch"          # K23-ultra+ dedicated stack swap

    # One-time / slow-path work.
    REWRITE_SITE = "rewrite_site"          # patch one syscall site
    MPROTECT = "mprotect"                  # permission flip for rewriting
    ICACHE_FLUSH = "icache_flush"          # serialize after code patching
    DLOPEN = "dlopen"                      # library mapping
    CONTEXT_SWITCH = "context_switch"      # scheduler switch


#: Calibrated cycle costs.  See module docstring and EXPERIMENTS.md.
DEFAULT_COSTS: Dict[Event, int] = {
    Event.INSTRUCTION: 1,
    Event.KERNEL_SYSCALL: 300,
    Event.KERNEL_SYSCALL_WORK: 0,
    Event.SUD_ARMED_SLOWPATH: 71,
    Event.SUD_SELECTOR_WRITE: 1,
    Event.SIGNAL_DELIVERY: 2100,
    Event.SIGRETURN: 1961,
    Event.PTRACE_STOP: 5000,
    Event.PTRACE_TRACER_WORK: 2000,
    Event.TRAMPOLINE_SLED: 10,
    Event.ZPOLINE_HANDLER: 26,
    Event.LAZYPOLINE_HANDLER: 33,
    Event.K23_HANDLER: 1,
    Event.BITMAP_CHECK: 10,
    Event.HASHSET_CHECK: 36,
    Event.STACK_SWITCH: 1,
    Event.REWRITE_SITE: 40,
    Event.MPROTECT: 600,
    Event.ICACHE_FLUSH: 200,
    Event.DLOPEN: 20_000,
    Event.CONTEXT_SWITCH: 1500,
}

#: Simulated clock, matching the evaluation machine (3.20 GHz Xeon w5-3425).
CLOCK_HZ = 3_200_000_000

#: SUD signal-delivery contention: with T SUD-armed threads in one process,
#: each SIGSYS delivery+return costs an extra
#: ``(T-1) * SUD_CONTENTION_FACTOR * (SIGNAL_DELIVERY + SIGRETURN)`` cycles
#: (kernel-side signal bookkeeping serializes across the thread group).
#: Calibrated against the paper's redis 6-I/O-thread SUD row (Table 6).
SUD_CONTENTION_FACTOR = 0.62


class CycleModel:
    """Accumulates cycles from charged events.

    One instance per simulated system; interposers, the kernel, and the CPU
    all charge through it.  ``counts`` keeps per-event tallies so experiments
    can decompose where time went (used by the microbenchmark analysis).
    """

    def __init__(self, costs: "Dict[Event, int] | None" = None):
        self.costs: Dict[Event, int] = dict(DEFAULT_COSTS)
        if costs:
            self.costs.update(costs)
        self.cycles = 0
        self.counts: Dict[Event, int] = {event: 0 for event in Event}
        #: Raw (data-dependent) cycles by charge-site label; together with
        #: ``counts × costs`` these account for every cycle in ``cycles``
        #: — the decomposition invariant the breakdown tests assert.
        self.raw_cycles: Dict[str, int] = {}
        #: Instrumentation bus (replaced by the owning kernel with its
        #: own).  Always a Bus — never None — so the two charge paths
        #: below pay exactly one predicate each while no sink is
        #: attached: the null-sink fast path.  Charges bypass
        #: ``Bus.emit``: they go into the bus's running tally when a
        #: totals sink listens, and are built into events only for the
        #: ``each_charge`` sinks (see repro.observability.bus).
        self.bus = Bus()

    def charge(self, event: Event, times: int = 1) -> int:
        """Charge *event* *times* times; returns the cycles added."""
        added = self.costs[event] * times
        self.cycles += added
        self.counts[event] += times
        bus = self.bus
        if bus.enabled:
            tally = bus.tally
            if tally is not None:
                entry = tally.get(event)
                if entry is None:
                    tally[event] = [1, times, added]
                else:
                    entry[0] += 1
                    entry[1] += times
                    entry[2] += added
            if bus.each_sinks:
                charge = CycleCharge(ts=self.cycles, pid=0, tid=0,
                                     event=event.value, times=times,
                                     cycles=added)
                for sink in bus.each_sinks:
                    sink.accept(charge)
        return added

    def charge_cycles(self, cycles: int, label: str = "unattributed") -> None:
        """Charge a raw cycle amount (used for data-dependent costs such as
        per-probe hash-set accounting).  *label* names the charge site so
        the cycle decomposition can attribute these too."""
        self.cycles += cycles
        self.raw_cycles[label] = self.raw_cycles.get(label, 0) + cycles
        bus = self.bus
        if bus.enabled:
            tally = bus.raw_tally
            if tally is not None:
                entry = tally.get(label)
                if entry is None:
                    tally[label] = [1, cycles]
                else:
                    entry[0] += 1
                    entry[1] += cycles
            if bus.each_sinks:
                charge = RawCycles(ts=self.cycles, pid=0, tid=0,
                                   label=label, cycles=cycles)
                for sink in bus.each_sinks:
                    sink.accept(charge)

    @property
    def seconds(self) -> float:
        """Wall-clock equivalent at the modelled 3.2 GHz."""
        return self.cycles / CLOCK_HZ

    def snapshot(self) -> Dict[Event, int]:
        """Copy of the per-event counters."""
        return dict(self.counts)

    def reset(self) -> None:
        self.cycles = 0
        self.counts = {event: 0 for event in Event}
        self.raw_cycles = {}
