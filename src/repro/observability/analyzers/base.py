"""Analyzer substrate: stateful sinks that turn the event stream into
forensic verdicts.

An :class:`Analyzer` is a :class:`~repro.observability.sinks.Sink` with
memory: it watches the bus, keeps a bounded evidence window of recent
events, and — once the run is over — renders structured
:class:`PitfallVerdict` findings.  Analyzers obey the bus contract
(observe-only, never raise, never return a value into the emitting
kernel), which is what lets the lockstep property extend to them: a run
with every analyzer attached is byte-identical, app-observably, to an
untraced run.  Diagnosis therefore cannot *mask* the bug it diagnoses —
the record-and-replay property ReVirt-style debuggers rely on.

Because analyzers only consume :class:`~repro.observability.events.BusEvent`
objects, the same analyzer instance grades a **live** run (attached to
``kernel.bus``) and a **replayed** one (events fed back from a
``RingBufferSink`` or a JSONL trace) identically — the determinism
property ``tests/observability/test_analyzer_determinism.py`` pins.
"""

from __future__ import annotations

import collections
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.observability.events import BusEvent, CycleCharge, RawCycles
from repro.observability.sinks import Sink

#: Version of the verdict/report JSON schema (bump on shape changes).
ANALYZER_SCHEMA_VERSION = 1


def event_to_dict(event: BusEvent) -> Dict:
    """JSON-ready rendering of one event, type tag included."""
    record = asdict(event)
    record["type"] = type(event).__name__
    return record


@dataclass(frozen=True)
class PitfallVerdict:
    """One structured finding of a pitfall analyzer.

    Attributes:
        pitfall: Table 3 row id (``"P1a"`` … ``"P5"``).
        analyzer: name of the analyzer that produced the finding.
        detected: True when the pitfall *fired* (the paper's ✗), False
            when the mechanism handled it (✓).
        reason: one-line human-readable grading, the string
            ``pitfallcheck --evidence`` prints.
        pid: the process the finding is about (0 = machine-global).
        ts: simulated cycle timestamp of the decisive event.
        evidence: the event window backing the finding — the decisive
            events themselves, not a narrative about them.
    """

    pitfall: str
    analyzer: str
    detected: bool
    reason: str
    pid: int = 0
    ts: int = 0
    evidence: Tuple[BusEvent, ...] = ()

    def to_dict(self) -> Dict:
        return {
            "pitfall": self.pitfall,
            "analyzer": self.analyzer,
            "detected": self.detected,
            "reason": self.reason,
            "pid": self.pid,
            "ts": self.ts,
            "evidence": [event_to_dict(e) for e in self.evidence],
        }


class Analyzer(Sink):
    """Stateful streaming sink with an evidence window and verdicts.

    Subclasses implement :meth:`observe` (per-event state updates) and
    :meth:`on_finish` (end-of-run grading).  Analyzers take no live
    charges (``each_charge`` False, totals ignored), and ``accept`` drops
    any ``CycleCharge``/``RawCycles`` a replayed stream feeds in, so the
    evidence window holds *interesting* events.
    """

    #: Table 3 row this analyzer grades ("" = telemetry, no verdicts).
    pitfall: str = ""
    name: str = "analyzer"
    each_charge = False

    def __init__(self, window_size: int = 64):
        self.window: collections.deque = collections.deque(maxlen=window_size)
        self._verdicts: List[PitfallVerdict] = []
        self._finished = False

    # ------------------------------------------------------------- sink

    def accept(self, event: BusEvent) -> None:
        if isinstance(event, (CycleCharge, RawCycles)):
            return
        self.window.append(event)
        self.observe(event)

    def observe(self, event: BusEvent) -> None:  # pragma: no cover - hook
        pass

    # ---------------------------------------------------------- verdicts

    def on_finish(self) -> None:  # pragma: no cover - hook
        pass

    def finish(self) -> List[PitfallVerdict]:
        """Finalize (idempotent) and return every verdict."""
        if not self._finished:
            self._finished = True
            self.on_finish()
        return self.verdicts()

    def verdicts(self) -> List[PitfallVerdict]:
        return list(self._verdicts)

    def emit_verdict(self, detected: bool, reason: str, pid: int = 0,
                     ts: int = 0,
                     evidence: Optional[Iterable[BusEvent]] = None
                     ) -> PitfallVerdict:
        verdict = PitfallVerdict(
            pitfall=self.pitfall, analyzer=self.name, detected=detected,
            reason=reason, pid=pid, ts=ts,
            evidence=tuple(self.window if evidence is None else evidence))
        self._verdicts.append(verdict)
        return verdict

    def report(self) -> Dict:
        """JSON-ready findings of this analyzer alone."""
        return {"analyzer": self.name, "pitfall": self.pitfall,
                "verdicts": [v.to_dict() for v in self.finish()]}


class AnalyzerSuite(Sink):
    """Fan one bus attachment out to N analyzers and aggregate reports.

    Attaching the suite (one ``bus.attach``) instead of each analyzer
    keeps the emit fan-out loop short; ``replay`` feeds a recorded event
    sequence through the same path, so live and replayed grading share
    every line of code.
    """

    each_charge = False

    def __init__(self, analyzers: Iterable[Analyzer]):
        self.analyzers: List[Analyzer] = list(analyzers)

    def accept(self, event: BusEvent) -> None:
        for analyzer in self.analyzers:
            analyzer.accept(event)

    def replay(self, events: Iterable[BusEvent]) -> "AnalyzerSuite":
        for event in events:
            self.accept(event)
        return self

    def finish(self) -> List[PitfallVerdict]:
        verdicts: List[PitfallVerdict] = []
        for analyzer in self.analyzers:
            verdicts.extend(analyzer.finish())
        return verdicts

    def __getitem__(self, name: str) -> Analyzer:
        for analyzer in self.analyzers:
            if analyzer.name == name:
                return analyzer
        raise KeyError(name)

    def report(self) -> Dict:
        """One JSON-ready document: verdicts plus telemetry snapshots."""
        verdicts = [v.to_dict() for v in self.finish()]
        telemetry = {a.name: a.snapshot() for a in self.analyzers
                     if hasattr(a, "snapshot")}
        return {"schema_version": ANALYZER_SCHEMA_VERSION,
                "verdicts": verdicts, "telemetry": telemetry}
