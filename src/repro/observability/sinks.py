"""Sinks: what attaches to the :class:`~repro.observability.bus.Bus`.

- :class:`NullSink` — accepts and drops everything; exists so the cost
  of an *attached-but-indifferent* consumer can be measured (the
  disabled-bus fast path never even reaches a sink).  It takes every
  event as an object, so the bus still builds each one, and no charges,
  so it measures the cost of non-charge events only.
- :class:`CounterSink` — counters + histograms: per-event-type tallies,
  per-:class:`~repro.observability.events.CycleCharge` cycle
  attribution, per-label raw-cycle attribution, and a per-syscall-number
  histogram.  This is what ``evaluation/breakdown.py`` and the
  conformance matrix consume, and what the ``METRICS_*.json`` artifacts
  snapshot.  It reads no event objects: events and charges reach it as
  counts and running totals.
- :class:`RingBufferSink` — bounded in-memory tracer (flight recorder):
  keeps the last N events, O(1) per emit.
- :class:`StreamingJSONLSink` — one JSON object per line to a stream,
  for piping a live run into external tooling.

Each sink declares ``each_event``: True (the default, and what a plain
object with only ``accept`` gets) receives every event as an object
through ``accept``; False receives per-class counts and the two
histograms through ``accept_counts``, or nothing if the sink keeps the
ignoring default.  ``each_charge`` makes the same choice for cycle
charges: True receives every ``CycleCharge`` / ``RawCycles`` event
through ``accept``; False receives charges as running totals through
``accept_charges``, or none at all (see
:mod:`repro.observability.bus`).  A :class:`CountingSink` records the
buses feeding it so it can flush their pending counts and totals before
its numbers are read.
"""

from __future__ import annotations

import collections
import json
from dataclasses import asdict
from typing import Dict, Optional, TextIO

from repro.observability.events import (BusEvent, CycleCharge, HookObserved,
                                        RawCycles, ShadowDivergence,
                                        SyscallEnter)


class Sink:
    """Sink protocol: ``accept`` one event, never raise, never return."""

    #: True: every event arrives as an object through ``accept``.
    #: False: events arrive as counts through ``accept_counts``.
    each_event: bool = True
    #: True: every charge arrives as one event through ``accept``.
    #: False: charges arrive as running totals through ``accept_charges``.
    each_charge: bool = True

    def accept(self, event: BusEvent) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def accept_counts(self, events: Dict[str, int],
                      syscalls: Dict[tuple, int],
                      hooks: Dict[str, int]) -> None:
        """Event counts since the last flush: *events* maps an event
        class name to occurrences, *syscalls* a ``(phase, nr)`` pair to
        ``SyscallEnter`` occurrences, *hooks* a hook name to
        ``HookObserved`` occurrences.  The dicts are shared by every
        count sink of the bus: read them, never keep or change them.  A
        sink that keeps this ignoring default is sent no events at all."""

    def accept_charges(self, charges: Dict[str, list],
                       raw: Dict[str, list]) -> None:
        """Charge totals since the last flush: *charges* maps a
        cycle-model event value to ``[calls, times, cycles]``, *raw* a
        raw-charge label to ``[calls, cycles]``.  A sink that keeps this
        ignoring default is sent no charges at all."""


class CountingSink(Sink):
    """A sink that counts charges (and, if it opts out of event objects,
    events) as running totals.

    The bus calls :meth:`on_attach` / :meth:`on_detach`; readers of the
    counts call :meth:`flush_charges` first, which hands every feeding
    bus's pending counts and totals to its counting sinks.
    """

    each_charge = False

    def __init__(self) -> None:
        self._feeds: list = []

    def on_attach(self, bus) -> None:
        self._feeds.append(bus)

    def on_detach(self, bus) -> None:
        self._feeds.remove(bus)

    def flush_charges(self) -> None:
        for bus in self._feeds:
            bus.flush()


class NullSink(Sink):
    """Accepts every event object, stores nothing; takes no charges."""

    each_charge = False

    def accept(self, event: BusEvent) -> None:
        pass


class CounterSink(CountingSink):
    """Counters and histograms over the event stream.

    Reads no event objects (``each_event`` False): the bus hands it
    per-class counts and the two histograms.  A subclass that sets
    ``each_event = True`` counts the same things through :meth:`accept`
    instead.

    Attributes:
        events: event-type name → occurrences seen.
        charge_counts / charge_cycles: cycle-model event value →
            times charged / cycles added (mirrors ``CycleModel.counts``
            exactly when attached for a whole run).
        raw_cycles: raw-charge label → cycles added.
        syscalls: (phase, syscall nr) histogram of ``SyscallEnter``.
        hooks: hook-name histogram of ``HookObserved``.
    """

    each_event = False

    def __init__(self) -> None:
        super().__init__()
        self._events: Dict[str, int] = collections.Counter()
        self._charge_counts: Dict[str, int] = collections.Counter()
        self._charge_cycles: Dict[str, int] = collections.Counter()
        self._raw_counts: Dict[str, int] = collections.Counter()
        self._raw_cycles: Dict[str, int] = collections.Counter()
        self._syscalls: Dict[tuple, int] = collections.Counter()
        self._hooks: Dict[str, int] = collections.Counter()

    def accept(self, event: BusEvent) -> None:
        self._events[type(event).__name__] += 1
        if isinstance(event, CycleCharge):
            self._charge_counts[event.event] += event.times
            self._charge_cycles[event.event] += event.cycles
        elif isinstance(event, RawCycles):
            self._raw_counts[event.label] += 1
            self._raw_cycles[event.label] += event.cycles
        elif isinstance(event, SyscallEnter):
            self._syscalls[(event.phase, event.nr)] += 1
        elif isinstance(event, HookObserved):
            self._hooks[event.hook] += 1

    def accept_counts(self, events: Dict[str, int],
                      syscalls: Dict[tuple, int],
                      hooks: Dict[str, int]) -> None:
        self._events.update(events)
        self._syscalls.update(syscalls)
        self._hooks.update(hooks)

    def accept_charges(self, charges: Dict[str, list],
                       raw: Dict[str, list]) -> None:
        events = self._events
        for key, (calls, times, cycles) in charges.items():
            events["CycleCharge"] += calls
            self._charge_counts[key] += times
            self._charge_cycles[key] += cycles
        for label, (calls, cycles) in raw.items():
            events["RawCycles"] += calls
            self._raw_counts[label] += calls
            self._raw_cycles[label] += cycles

    # The counters flush pending bus counts and totals before every read.

    @property
    def events(self) -> Dict[str, int]:
        self.flush_charges()
        return self._events

    @property
    def syscalls(self) -> Dict[tuple, int]:
        self.flush_charges()
        return self._syscalls

    @property
    def hooks(self) -> Dict[str, int]:
        self.flush_charges()
        return self._hooks

    @property
    def charge_counts(self) -> Dict[str, int]:
        self.flush_charges()
        return self._charge_counts

    @property
    def charge_cycles(self) -> Dict[str, int]:
        self.flush_charges()
        return self._charge_cycles

    @property
    def raw_counts(self) -> Dict[str, int]:
        self.flush_charges()
        return self._raw_counts

    @property
    def raw_cycles(self) -> Dict[str, int]:
        self.flush_charges()
        return self._raw_cycles

    @property
    def total_cycles(self) -> int:
        """Every cycle the model accumulated while this sink listened —
        modelled charges plus raw charges.  The decomposition invariant
        (tests/evaluation/test_breakdown_invariant.py) is that this
        equals the cycle-counter delta exactly."""
        return (sum(self.charge_cycles.values())
                + sum(self.raw_cycles.values()))

    def snapshot(self) -> Dict:
        """JSON-ready copy of every counter (sorted, deterministic)."""
        self.flush_charges()
        return {
            "events": dict(sorted(self.events.items())),
            "charge_counts": dict(sorted(self.charge_counts.items())),
            "charge_cycles": dict(sorted(self.charge_cycles.items())),
            "raw_counts": dict(sorted(self.raw_counts.items())),
            "raw_cycles": dict(sorted(self.raw_cycles.items())),
            "syscalls": {f"{phase}:{nr}": n for (phase, nr), n
                         in sorted(self.syscalls.items())},
            "hooks": dict(sorted(self.hooks.items())),
            "total_cycles": self.total_cycles,
        }


class RingBufferSink(Sink):
    """Flight recorder: the last *capacity* events, O(1) per accept.

    ``CycleCharge`` events are excluded by default — they arrive at
    INSTRUCTION rate and would evict everything interesting; pass
    ``keep_charges=True`` to record them too.
    """

    def __init__(self, capacity: int = 4096, keep_charges: bool = False):
        self.buffer: collections.deque = collections.deque(maxlen=capacity)
        self.keep_charges = keep_charges
        self.each_charge = keep_charges
        self.dropped = 0

    def accept(self, event: BusEvent) -> None:
        if not self.keep_charges and isinstance(event, (CycleCharge,
                                                        RawCycles)):
            return
        if len(self.buffer) == self.buffer.maxlen:
            self.dropped += 1
        self.buffer.append(event)

    def events(self) -> list:
        return list(self.buffer)


class DivergenceSink(Sink):
    """Collects :class:`ShadowDivergence` events, drops everything else.

    The shadow harness emits one event per detected divergence onto the
    *primary* kernel's bus; this sink is the budget counter — verdicts
    compare ``len(sink)`` against the configured divergence budget, and
    the artifact bundle serializes :meth:`snapshot`.
    """

    each_charge = False

    def __init__(self) -> None:
        self.divergences: list = []

    def accept(self, event: BusEvent) -> None:
        if isinstance(event, ShadowDivergence):
            self.divergences.append(event)

    def __len__(self) -> int:
        return len(self.divergences)

    def snapshot(self) -> list:
        """JSON-ready copy of every collected divergence, in order."""
        return [{"kind": d.kind, "primary": d.primary, "shadow": d.shadow,
                 "request": d.request, "detail": d.detail, "ts": d.ts,
                 "pid": d.pid, "tid": d.tid}
                for d in self.divergences]


#: JSONL trace stream format version.  v2: every record carries a
#: monotonically increasing ``seq`` (line 0 is a ``TraceMeta`` header),
#: which is what ``repro tracediff`` aligns on.
JSONL_SCHEMA_VERSION = 2


class StreamingJSONLSink(CountingSink):
    """One JSON object per event per line, written as events arrive.

    Line 0 is a ``TraceMeta`` header carrying the schema version.  Every
    record (header included) has a ``seq`` field assigned in emission
    order and a ``type`` field naming the event class — together they
    make two traces of the same run alignable record-by-record.

    ``CycleCharge``/``RawCycles`` are summarized on ``close()`` instead
    of streamed (they arrive at instruction rate), unless
    *include_charges* streams every one.
    """

    def __init__(self, stream: TextIO, include_charges: bool = False):
        super().__init__()
        self.stream = stream
        self.include_charges = include_charges
        self.each_charge = include_charges
        self._charge_cycles: Dict[str, int] = collections.Counter()
        self._seq = 0
        self._write({"type": "TraceMeta",
                     "schema_version": JSONL_SCHEMA_VERSION,
                     "include_charges": include_charges})

    def _write(self, record: Dict) -> None:
        record["seq"] = self._seq
        self._seq += 1
        self.stream.write(json.dumps(record, sort_keys=True) + "\n")

    def accept(self, event: BusEvent) -> None:
        if isinstance(event, (CycleCharge, RawCycles)):
            if not self.include_charges:
                key = (event.event if isinstance(event, CycleCharge)
                       else f"raw:{event.label}")
                self._charge_cycles[key] += event.cycles
                return
        record = asdict(event)
        record["type"] = type(event).__name__
        self._write(record)

    def accept_charges(self, charges: Dict[str, list],
                       raw: Dict[str, list]) -> None:
        summary = self._charge_cycles
        for key, entry in charges.items():
            summary[key] += entry[2]
        for label, entry in raw.items():
            summary[f"raw:{label}"] += entry[1]

    def close(self) -> Optional[Dict[str, int]]:
        """Flush the aggregated charge summary as one final line."""
        self.flush_charges()
        if self._charge_cycles:
            self._write({"type": "ChargeSummary",
                         "cycles": dict(sorted(self._charge_cycles.items()))})
        self.stream.flush()
        return dict(self._charge_cycles) or None
