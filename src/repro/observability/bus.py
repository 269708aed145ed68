"""The instrumentation bus: one producer API, N attached sinks.

The bus is *disabled* (``enabled`` False) until a sink attaches, and
every emit site in the kernel/CPU/injector guards on that single
predicate and hands the bus the event class and its fields::

    bus = self.bus
    if bus.enabled:
        bus.emit(SyscallEnter, ts=..., pid=..., tid=..., nr=nr, ...)

so a quiescent bus costs one attribute read plus one truth test per
site — the null-sink fast path the interpreter-overhead budget in
``benchmarks/bench_interp_speed.py`` polices.

Events take two channels, chosen per sink by its ``each_event`` flag
(default True):

- **objects** — :meth:`Bus.emit` builds one frozen event (the expensive
  part) and hands it to the ``each_event`` sinks (``event_sinks``); it
  builds none while no such sink is attached;
- **counts** — while any ``each_event = False`` sink that counts events
  (it overrides ``Sink.accept_counts``) is attached, :meth:`Bus.emit`
  adds one to the pending per-class count (``counts``), plus the
  ``(phase, nr)`` histogram of ``SyscallEnter`` (``syscall_counts``)
  and the hook histogram of ``HookObserved`` (``hook_counts``), and
  :meth:`flush` hands them to those sinks' ``accept_counts``.

Cycle charges arrive about once per retired instruction and bypass
:meth:`Bus.emit`; the cycle model feeds the same two channels, chosen by
``each_charge`` (default True):

- **each charge** — the cycle model builds one ``CycleCharge`` /
  ``RawCycles`` event per charge and hands it to the ``each_charge``
  sinks only (``each_sinks``);
- **running totals** — while any ``each_charge = False`` sink that
  counts charges (it overrides ``Sink.accept_charges``) is attached, the
  cycle model adds ``[calls, times, cycles]`` into the pending tally
  (``tally`` by :class:`~repro.cpu.cycles.Event`, ``raw_tally`` by raw
  label, ``[calls, cycles]``) and :meth:`flush` hands it to those
  sinks' ``accept_charges``.

A ``False`` sink that keeps the ignoring default of its channel gets
nothing on it.  Counts and charge totals share their flush points: the
bus flushes before any sink attaches or detaches — so every counting
sink sees exactly what happened while it listened — and whenever a
counting sink's numbers are read (it calls :meth:`flush` on each bus
that feeds it).  Nothing flushes per emitted event: no counting sink
depends on how its tallies interleave.

Sinks are observe-only: ``emit`` returns nothing and sinks cannot
influence execution, which is what makes the trace-on/off lockstep
property (tests/observability/test_lockstep.py) hold by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.observability.events import HookObserved, SyscallEnter
from repro.observability.sinks import Sink


def _overrides(sink, method: str) -> bool:
    """Whether *sink*'s class replaces the ignoring default of *method*."""
    return (getattr(type(sink), method, getattr(Sink, method))
            is not getattr(Sink, method))


class Bus:
    """Fan-out of bus events to attached sinks, as objects or counts."""

    __slots__ = ("enabled", "sinks", "event_sinks", "count_sinks",
                 "each_sinks", "totals_sinks", "counts", "syscall_counts",
                 "hook_counts", "tally", "raw_tally")

    def __init__(self) -> None:
        #: Fast-path predicate; kept in lockstep with ``sinks`` by
        #: attach/detach.  Emit sites read this, never ``sinks``.
        self.enabled: bool = False
        self.sinks: List = []
        #: Sinks that take every event as an object (``each_event``).
        self.event_sinks: List = []
        #: Sinks that take events as per-class counts.
        self.count_sinks: List = []
        #: Sinks that take every charge as one event (``each_charge``).
        self.each_sinks: List = []
        #: Sinks that take charges as running totals.
        self.totals_sinks: List = []
        #: Pending event counts since the last flush — None while no
        #: count sink is attached, so ``emit`` skips the count.
        self.counts: Optional[Dict] = None
        self.syscall_counts: Optional[Dict] = None
        self.hook_counts: Optional[Dict] = None
        #: Pending charge totals since the last flush — None while no
        #: totals sink is attached, so the cycle model skips the tally.
        self.tally: Optional[Dict] = None
        self.raw_tally: Optional[Dict] = None

    def attach(self, sink) -> "Bus":
        """Attach *sink* (anything with ``accept(event)``); enables the bus."""
        if sink not in self.sinks:
            self.flush()
            self.sinks.append(sink)
            feeds = False
            if getattr(sink, "each_event", True):
                self.event_sinks.append(sink)
            elif _overrides(sink, "accept_counts"):
                self.count_sinks.append(sink)
                if self.counts is None:
                    self.counts, self.syscall_counts, self.hook_counts = \
                        {}, {}, {}
                feeds = True
            if getattr(sink, "each_charge", True):
                self.each_sinks.append(sink)
            elif _overrides(sink, "accept_charges"):
                self.totals_sinks.append(sink)
                if self.tally is None:
                    self.tally, self.raw_tally = {}, {}
                feeds = True
            on_attach = getattr(sink, "on_attach", None)
            if feeds and on_attach is not None:
                on_attach(self)
        self.enabled = True
        return self

    def detach(self, sink) -> None:
        """Detach *sink*; the bus disables itself when no sinks remain."""
        if sink in self.sinks:
            self.flush()
            self.sinks.remove(sink)
            feeds = False
            if sink in self.event_sinks:
                self.event_sinks.remove(sink)
            elif sink in self.count_sinks:
                self.count_sinks.remove(sink)
                if not self.count_sinks:
                    self.counts = self.syscall_counts = self.hook_counts = None
                feeds = True
            if sink in self.each_sinks:
                self.each_sinks.remove(sink)
            elif sink in self.totals_sinks:
                self.totals_sinks.remove(sink)
                if not self.totals_sinks:
                    self.tally = self.raw_tally = None
                feeds = True
            on_detach = getattr(sink, "on_detach", None)
            if feeds and on_detach is not None:
                on_detach(self)
        self.enabled = bool(self.sinks)

    def emit(self, cls: type, **fields) -> None:
        """Publish one *cls* event with *fields*: counted for the count
        sinks, and built once for the object sinks if any is attached."""
        counts = self.counts
        if counts is not None:
            counts[cls] = counts.get(cls, 0) + 1
            if cls is SyscallEnter:
                key = (fields["phase"], fields["nr"])
                tally = self.syscall_counts
                tally[key] = tally.get(key, 0) + 1
            elif cls is HookObserved:
                key = fields["hook"]
                tally = self.hook_counts
                tally[key] = tally.get(key, 0) + 1
        sinks = self.event_sinks
        if sinks:
            event = cls(**fields)
            for sink in sinks:
                sink.accept(event)

    def flush(self) -> None:
        """Hand the pending counts and charge totals to their sinks."""
        counts = self.counts
        if counts:
            syscalls, hooks = self.syscall_counts, self.hook_counts
            self.counts, self.syscall_counts, self.hook_counts = {}, {}, {}
            named = {cls.__name__: n for cls, n in counts.items()}
            for sink in self.count_sinks:
                sink.accept_counts(named, syscalls, hooks)
        tally, raw = self.tally, self.raw_tally
        if not tally and not raw:
            return
        self.tally, self.raw_tally = {}, {}
        charges = {event.value: entry for event, entry in tally.items()}
        for sink in self.totals_sinks:
            sink.accept_charges(charges, raw)
