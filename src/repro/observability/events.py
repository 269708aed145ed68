"""The typed event taxonomy of the instrumentation bus.

Every event is a frozen dataclass with three shared fields:

- ``ts`` — the simulated cycle counter at emission (3.2 GHz; exporters
  divide by :data:`~repro.cpu.cycles.CLOCK_HZ` for wall-clock).
- ``pid`` / ``tid`` — the simulated process/thread the event belongs to
  (0 when the event is machine-global, e.g. a cycle charge made outside
  any thread context).

Emit sites never build these objects themselves: they hand
:meth:`~repro.observability.bus.Bus.emit` the class and its fields, and
the bus builds the object only while a sink that reads objects is
attached (a counting-only bus just counts).  Cycle charges bypass
``emit``; the cycle model builds ``CycleCharge`` / ``RawCycles`` only
for sinks that take every charge.

Events are *observations*, never control flow: a sink cannot return a
verdict, mutate registers, or fail a syscall.  Channels that need a
return value (the fault-injection engine's ``transient_errno`` /
``clip_budget``) therefore stay direct kernel callbacks and surface here
only as :class:`FaultInjected` records of what they already did — see
DESIGN.md §3f for the taxonomy split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True, slots=True)
class BusEvent:
    """Base event: timestamp (simulated cycles) + thread identity."""

    ts: int
    pid: int
    tid: int


@dataclass(frozen=True, slots=True)
class SyscallEnter(BusEvent):
    """A system call entered the kernel (raw trap or interposer forward).

    ``phase`` tags the dispatch route the call is taking — the mechanism
    phase the paper's cost decomposition attributes cycles to:
    ``"app"`` (raw uninterposed trap), ``"ptrace"``, ``"sud"`` (SUD
    blocked the trap; a SIGSYS delivery follows), ``"seccomp-trap"``,
    ``"sud-handler"`` / ``"rewrite-handler"`` (an interposer forwarding
    the application's call), ``"interposer-internal"``.
    """

    nr: int
    site: int
    phase: str


@dataclass(frozen=True, slots=True)
class SyscallExit(BusEvent):
    """The matching return-to-user (or forward completion) of a call."""

    nr: int
    phase: str
    result: Optional[int]


@dataclass(frozen=True, slots=True)
class SignalEvent(BusEvent):
    """One step of signal traffic.

    ``kind``: ``"deliver"`` (a handler frame was set up — host-callable
    or simulated-address), ``"default"`` (default disposition ran),
    ``"queue"`` (masked async signal parked on ``pending_signals``),
    ``"defer"`` (simulated-address delivery deferred to return-to-user
    because a host handler is on stack), ``"forced"`` (masked
    synchronous fault force-killed, Linux ``force_sig``), ``"return"``
    (host handler returned / ``rt_sigreturn`` executed).
    """

    signal: int
    kind: str
    sync: bool = False


@dataclass(frozen=True, slots=True)
class PtraceStop(BusEvent):
    """A tracee stopped for its tracer (syscall entry or exit stop)."""

    nr: int
    entry: bool


@dataclass(frozen=True, slots=True)
class IcacheShootdown(BusEvent):
    """IPI-based invalidation of decoded lines/blocks over a range."""

    start: int
    length: int


@dataclass(frozen=True, slots=True)
class FaultInjected(BusEvent):
    """The fault-injection engine performed one scheduled injection.

    ``description`` is the engine's log line — the determinism artifact —
    so a trace can be cross-checked against ``FaultInjector.log``.
    """

    description: str


@dataclass(frozen=True, slots=True)
class QuantumEnd(BusEvent):
    """A thread's scheduler turn ended (quantum boundary)."""


@dataclass(frozen=True, slots=True)
class CycleCharge(BusEvent):
    """A modelled event was charged to the cycle model.

    ``event`` is the :class:`repro.cpu.cycles.Event` value string;
    ``cycles`` is the total added (``times`` × unit cost).  Sinks that
    aggregate (counters, the trace exporter's attribution table) key on
    ``event``; per-charge storage is deliberately avoided for
    INSTRUCTION-rate events.
    """

    event: str
    times: int
    cycles: int


@dataclass(frozen=True, slots=True)
class RawCycles(BusEvent):
    """A data-dependent raw cycle charge (``CycleModel.charge_cycles``).

    ``label`` names the charge site (``"io-data"``, ``"sud-contention"``,
    ``"seccomp-filter"``, ...); these are the rows that make the cycle
    decomposition sum exactly to the total.
    """

    label: str
    cycles: int


@dataclass(frozen=True, slots=True)
class HookObserved(BusEvent):
    """An interposition hook observed one application syscall."""

    nr: int
    hook: str
    result: Optional[int]


@dataclass(frozen=True, slots=True)
class ProcessLifecycle(BusEvent):
    """A process was created, replaced its image, or exited.

    ``kind``: ``"spawn"`` (``spawn_process``/``fork``), ``"exec"``
    (``execve`` replaced the image; ``path`` is the *new* image), or
    ``"exit"`` (``status`` carries the exit/kill status and ``detail``
    the kill reason, e.g. an ``InterposerAbort`` message).  These are the
    events that let stream analyzers attribute syscall traffic to a
    program and grade run outcomes without kernel introspection.
    """

    kind: str
    path: str
    status: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True, slots=True)
class RewriteApplied(BusEvent):
    """An interposer rewrote application code bytes at runtime.

    ``protocol`` names the code path (``"static-safe"`` for the
    save/patch/restore/shootdown sequence zpoline and K23 use,
    ``"lazy-unsafe"`` for lazypoline's discovery patch); ``atomic`` and
    ``coherent`` record whether the store was single-shot and whether a
    cross-core instruction-stream invalidation followed — the two
    properties whose absence is pitfall P5.
    """

    site: int
    protocol: str
    atomic: bool
    coherent: bool


@dataclass(frozen=True, slots=True)
class VdsoCall(BusEvent):
    """A vDSO fast path ran — no ``syscall`` instruction was executed,
    so no interposer (except a vDSO-disabling ptracer) could see it:
    the stream-visible half of pitfall P2b."""

    symbol: str
    site: int


@dataclass(frozen=True, slots=True)
class ShadowDivergence(BusEvent):
    """The shadow harness observed the mirror disagree with the primary.

    ``kind`` names the compared channel: ``"response"`` (a mirrored
    request's response bytes differ), ``"trace"`` (the normalized
    app-observable syscall trace diverges), or ``"exit"`` (a batch
    workload's exit status / output bytes differ).  ``request`` is the
    mirrored request (or aligned trace record) index the divergence was
    detected at; ``primary``/``shadow`` are the two mechanism names and
    ``detail`` the one-line rendering the rollback report prints.
    """

    kind: str
    primary: str
    shadow: str
    request: int
    detail: str


@dataclass(frozen=True, slots=True)
class EngineStats(BusEvent):
    """Execution-engine tier counters for one finished run.

    Emitted once per ``run_process`` completion (when a sink is attached)
    so traces record how the work was executed: how many unit dispatches
    hit a chained edge, how often compiled traces replayed
    (``superblock_hits`` equals ``trace_hits``: a superblock is only ever
    dispatched as its trace), and how the speculation failed
    (``guard_fails``) or was torn down (``invalidation_unlinks``).
    ``tiers`` is the :meth:`repro.cpu.engine.EngineConfig.tiers` label,
    e.g. ``"chain+superblock+trace_jit"`` or ``"single-step"``.
    """

    tiers: str
    chain_links: int
    chain_follows: int
    superblocks_formed: int
    superblock_hits: int
    traces_compiled: int
    trace_hits: int
    guard_fails: int
    invalidation_unlinks: int


@dataclass(frozen=True, slots=True)
class ReplayCheckpoint(BusEvent):
    """The record/replay recorder captured a machine checkpoint here.

    ``seq`` is the recorder's semantic-event sequence number the state
    corresponds to (every event with sequence <= ``seq`` happened before
    the capture) — the anchor ``repro replay --to-seq`` restores from.
    ``index`` is the checkpoint's ordinal in the bundle, ``insns`` the
    retired-instruction count at capture, and ``pages`` the number of
    address-space pages the copy-on-write snapshot references.
    """

    seq: int
    index: int
    insns: int
    pages: int


@dataclass(frozen=True, slots=True)
class QueueDepthSample(BusEvent):
    """One queue-depth observation from the traffic engine's fabric.

    Sampled on a fixed virtual-time grid per fleet server while an
    open-loop load test runs: ``server`` is the fleet index, ``depth``
    the number of admitted-but-unserved requests levelled in that
    server's queue, ``in_flight`` how many are in service across its
    workers, and ``t_ns`` the virtual (schedule) time of the sample.
    The series behind METRICS_slo.json's ``queue_depth`` section.
    """

    server: int
    depth: int
    in_flight: int
    t_ns: int


@dataclass(frozen=True, slots=True)
class TrafficStageStats(BusEvent):
    """Aggregate outcome of one ramp stage of an open-loop load test.

    One event per arrival-rate step: ``rate`` is the offered rate
    (requests/second), ``offered``/``completed``/``shed`` the request
    tallies, ``p99_ns`` the stage's p99 latency and ``max_depth`` the
    deepest queue observed — the series the saturation knee is read
    from.
    """

    stage: int
    rate: int
    offered: int
    completed: int
    shed: int
    p99_ns: int
    max_depth: int


@dataclass(frozen=True, slots=True)
class RequestSpan(BusEvent):
    """One finished (or shed) open-loop request's span decomposition.

    The flat, queryable rendering of a traffic span tree
    (:mod:`repro.observability.spans`): ``request`` is the exemplar ID
    (``"r-<schedule index>"`` — the key ``sloexplain`` and
    ``traceq --where request=...`` take), stage durations are integer
    nanoseconds and sum exactly to ``latency_ns`` (the zero-residual
    contract; ``service_ns`` is the closing remainder).  ``shed`` marks
    a rejected request, ``stalled`` one abandoned by stall-shed
    detection (a wedged fleet).  Emitted behind the null-sink guard
    only when span tracing is enabled for the run.
    """

    request: str
    server: int
    conn: int
    stage: int
    tenant: str
    kind: str
    arrival_ns: int
    latency_ns: int
    admission_ns: int
    conn_wait_ns: int
    queue_ns: int
    service_ns: int
    shed: bool
    stalled: bool


#: Every event type, for sink filters and schema docs.
EVENT_TYPES: Tuple[type, ...] = (
    SyscallEnter, SyscallExit, SignalEvent, PtraceStop, IcacheShootdown,
    FaultInjected, QuantumEnd, CycleCharge, RawCycles, HookObserved,
    ProcessLifecycle, RewriteApplied, VdsoCall, ShadowDivergence,
    EngineStats, ReplayCheckpoint, QueueDepthSample, TrafficStageStats,
    RequestSpan,
)
