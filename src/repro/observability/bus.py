"""The instrumentation bus: one producer API, N attached sinks.

The bus is *disabled* (``enabled`` False) until a sink attaches, and
every emit site in the kernel/CPU/injector guards on that single
predicate::

    bus = self.bus
    if bus.enabled:
        bus.emit(SyscallEnter(...))

so a quiescent bus costs one attribute read plus one truth test per
site — the null-sink fast path the interpreter-overhead budget in
``benchmarks/bench_interp_speed.py`` polices.  Event *construction*
(the expensive part) only happens behind the guard.

Cycle charges arrive about once per retired instruction and take two
channels instead of :meth:`Bus.emit`, chosen per sink by its
``each_charge`` flag (default True):

- **each charge** — the cycle model builds one ``CycleCharge`` /
  ``RawCycles`` event per charge and hands it to the ``each_charge``
  sinks only (``each_sinks``);
- **running totals** — while any ``each_charge = False`` sink that
  counts charges (it overrides ``Sink.accept_charges``) is attached, the
  cycle model adds ``[calls, times, cycles]`` into the pending tally
  (``tally`` by :class:`~repro.cpu.cycles.Event`, ``raw_tally`` by raw
  label, ``[calls, cycles]``) and :meth:`flush` hands it to those
  sinks' ``accept_charges``.  An ``each_charge = False`` sink that
  keeps the ignoring default gets no charges at all.

The tally is flushed before any sink attaches or detaches — so every
totals sink sees exactly the charges made while it listened — and
whenever a totals sink's numbers are read (it calls :meth:`flush` on
each bus that feeds it).  Nothing flushes per emitted event: no totals
sink depends on how charges interleave with other events.

Sinks are observe-only: ``emit`` returns nothing and sinks cannot
influence execution, which is what makes the trace-on/off lockstep
property (tests/observability/test_lockstep.py) hold by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.observability.events import BusEvent
from repro.observability.sinks import Sink


class Bus:
    """Fan-out of :class:`BusEvent` objects to attached sinks."""

    __slots__ = ("enabled", "sinks", "each_sinks", "totals_sinks", "tally",
                 "raw_tally")

    def __init__(self) -> None:
        #: Fast-path predicate; kept in lockstep with ``sinks`` by
        #: attach/detach.  Emit sites read this, never ``sinks``.
        self.enabled: bool = False
        self.sinks: List = []
        #: Sinks that take every charge as one event (``each_charge``).
        self.each_sinks: List = []
        #: Sinks that take charges as running totals.
        self.totals_sinks: List = []
        #: Pending totals since the last flush — None while no totals
        #: sink is attached, so the cycle model skips the tally.
        self.tally: Optional[Dict] = None
        self.raw_tally: Optional[Dict] = None

    def attach(self, sink) -> "Bus":
        """Attach *sink* (anything with ``accept(event)``); enables the bus."""
        if sink not in self.sinks:
            self.flush()
            self.sinks.append(sink)
            if getattr(sink, "each_charge", True):
                self.each_sinks.append(sink)
            elif (getattr(type(sink), "accept_charges", Sink.accept_charges)
                  is not Sink.accept_charges):
                self.totals_sinks.append(sink)
                if self.tally is None:
                    self.tally, self.raw_tally = {}, {}
                on_attach = getattr(sink, "on_attach", None)
                if on_attach is not None:
                    on_attach(self)
        self.enabled = True
        return self

    def detach(self, sink) -> None:
        """Detach *sink*; the bus disables itself when no sinks remain."""
        if sink in self.sinks:
            self.flush()
            self.sinks.remove(sink)
            if sink in self.each_sinks:
                self.each_sinks.remove(sink)
            elif sink in self.totals_sinks:
                self.totals_sinks.remove(sink)
                if not self.totals_sinks:
                    self.tally = self.raw_tally = None
                on_detach = getattr(sink, "on_detach", None)
                if on_detach is not None:
                    on_detach(self)
        self.enabled = bool(self.sinks)

    def emit(self, event: BusEvent) -> None:
        for sink in self.sinks:
            sink.accept(event)

    def flush(self) -> None:
        """Hand the pending charge totals to every totals sink."""
        tally, raw = self.tally, self.raw_tally
        if not tally and not raw:
            return
        self.tally, self.raw_tally = {}, {}
        charges = {event.value: entry for event, entry in tally.items()}
        for sink in self.totals_sinks:
            sink.accept_charges(charges, raw)
