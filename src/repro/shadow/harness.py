"""The dark-launch harness: primary serves, shadow mirrors, diffs decide.

One :func:`run_shadow` call answers the paper's deployment question —
"is mechanism B a safe drop-in for mechanism A under this workload?" —
the way production systems do (the Shadow Request pattern): the workload
runs on a *primary* mechanism while every request is mirrored to a
*shadow* mechanism on a second deterministically-seeded kernel.  Shadow
responses are compared byte-for-byte and then discarded; after the
drive, the normalized app-observable syscall traces of both sides are
aligned with the tracediff machinery and every divergence is emitted as
a :class:`~repro.observability.events.ShadowDivergence` event on the
primary kernel's bus.  A configurable divergence budget turns the count
into an automatic PROMOTE/ROLLBACK verdict, and any mismatch can emit a
forensic artifact bundle (:mod:`repro.shadow.bundle`).

Batch workloads (stress, coreutils) mirror at whole-run granularity:
both sides run to exit and exit status / output bytes / normalized
traces are compared.

Both kernels are built through :func:`repro.api.prepare` — same seed,
ASLR off, torn-window dice off — and fault injection uses identical
seeded :class:`~repro.faultinject.schedule.FaultSchedule` objects, so a
schedule applied to *both* sides is behavior-invariant for conformant
mechanisms while a schedule applied to *one* side forces divergence (the
harness's own negative control, exercised by the CLI's ``--fault-side``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import (REGISTRY, DivergenceSink, FaultConfig,
                       LatencyAnalyzer, PreparedRun, RunConfig,
                       ShadowDivergence, build_schedule, prepare)
from repro.kernel.syscalls import Errno, Nr
from repro.observability.export import TraceSink
from repro.shadow.divergence import (describe_divergence, diff_normalized,
                                     normalized_trace, verdict_for)
from repro.workloads.clients import MirroredSource

#: Sides the fault schedule can be armed on.
FAULT_SIDES = ("none", "both", "primary", "shadow")


@dataclass(frozen=True)
class ShadowConfig:
    """One dark-launch experiment, frozen and validated.

    Attributes:
        primary / shadow: registry mechanism names (case-insensitive;
            canonicalized at construction).
        workload: a :data:`repro.runapi.WORKLOADS` key.
        seed: kernel seed used for *both* sides (lockstep determinism).
        requests: mirrored round trips (server workloads).
        connections: per-side connection count (None = workload default).
        budget: inclusive divergence budget — ``count <= budget``
            promotes, anything above rolls back.
        fault_seed / fault_side: arm the conformance fault schedule built
            from ``fault_seed`` on ``"both"`` sides (behavior-invariant
            for conformant mechanisms), on ``"primary"`` or ``"shadow"``
            only (forces divergence — the negative control), or
            ``"none"``.
        warmup_rounds: un-compared warmup exchanges before measurement.
        params: workload installer parameters (see ``RunConfig.params``).
        block_cache: force the interpreter mode on both sides.
        max_steps: batch execution budget per side.
        bundle_dir: when set and any divergence is found, the artifact
            bundle is written under this directory.
        trace_out: when set, the primary side's Perfetto/Chrome trace is
            written here unconditionally (the bundle already carries both
            sides' traces on divergence).
    """

    primary: str
    shadow: str
    workload: str
    seed: int = 0
    requests: int = 24
    connections: Optional[int] = None
    budget: int = 0
    fault_seed: Optional[int] = None
    fault_side: str = "none"
    warmup_rounds: int = 1
    params: Tuple[Tuple[str, int], ...] = ()
    block_cache: Optional[bool] = None
    max_steps: int = 10_000_000
    bundle_dir: Optional[str] = None
    trace_out: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "primary", REGISTRY.canonical(self.primary))
        object.__setattr__(self, "shadow", REGISTRY.canonical(self.shadow))
        if self.fault_side not in FAULT_SIDES:
            raise ValueError(f"fault_side must be one of {FAULT_SIDES}, "
                             f"got {self.fault_side!r}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.fault_side != "none" and self.fault_seed is None:
            raise ValueError("fault_side without fault_seed; pass the "
                             "schedule seed to arm injection")
        object.__setattr__(self, "params",
                           tuple(sorted(tuple(p) for p in self.params)))


@dataclass
class ShadowReport:
    """Everything one shadow run decided and measured."""

    primary: str
    shadow: str
    workload: str
    seed: int
    requests: int
    failures: int
    divergence_count: int
    budget: int
    verdict: str
    divergences: List[Dict] = field(default_factory=list)
    latency_delta: Dict = field(default_factory=dict)
    counters: Dict = field(default_factory=dict)
    analyzer_reports: Dict = field(default_factory=dict)
    bundle_path: Optional[str] = None
    flight_path: Optional[str] = None

    @property
    def promoted(self) -> bool:
        return self.verdict == "PROMOTE"

    def to_dict(self) -> Dict:
        return {
            "primary": self.primary,
            "shadow": self.shadow,
            "workload": self.workload,
            "seed": self.seed,
            "requests": self.requests,
            "failures": self.failures,
            "divergence_count": self.divergence_count,
            "budget": self.budget,
            "verdict": self.verdict,
            "divergences": self.divergences,
            "latency_delta": self.latency_delta,
            "counters": self.counters,
            "bundle_path": self.bundle_path,
            "flight_path": self.flight_path,
        }


def shadow_fault_config() -> FaultConfig:
    """The fault profile shadow runs arm (``fault_seed``/``fault_side``).

    The conformance harness's profile covers only the first 40
    app-requested occurrences — for a server workload that horizon is
    exhausted during boot, before the compared post-warmup window, so a
    one-sided schedule would never force a divergence.  This profile
    pre-draws a horizon deep enough to reach steady state, puts a floor
    rate on every injectable syscall (batch workloads fail via their
    file I/O), and focuses the errno channel on the request-path
    syscalls, so injections land inside the mirrored drive where the
    diff is looking.
    """
    return FaultConfig(
        horizon=8_000,
        errno_rate=0.05,
        errno_rates={int(Nr.recvfrom): 0.25, int(Nr.sendto): 0.25},
        errnos=(Errno.EINTR, Errno.EAGAIN),
    )


def _side_config(config: ShadowConfig, mechanism: str,
                 side: str) -> RunConfig:
    schedule = None
    if config.fault_seed is not None and config.fault_side in ("both", side):
        schedule = build_schedule(config.fault_seed, shadow_fault_config())
    return RunConfig(
        mechanism=mechanism, workload=config.workload, seed=config.seed,
        schedule=schedule, analyzers=(LatencyAnalyzer(),),
        requests=config.requests, connections=config.connections,
        warmup_rounds=config.warmup_rounds, params=config.params,
        block_cache=config.block_cache, max_steps=config.max_steps)


def _percentile_delta(mine: Optional[Dict],
                      theirs: Optional[Dict]) -> Dict:
    """Per-key latency comparison (cycles); one side may lack the key —
    mechanisms route syscalls through different phases legitimately."""
    entry: Dict = {
        "primary": {k: mine[k] for k in ("count", "p50", "p99")}
        if mine else None,
        "shadow": {k: theirs[k] for k in ("count", "p50", "p99")}
        if theirs else None,
    }
    if mine and theirs:
        entry["delta_p50"] = theirs["p50"] - mine["p50"]
        entry["delta_p99"] = theirs["p99"] - mine["p99"]
    return entry


def latency_deltas(primary_snapshot: Dict, shadow_snapshot: Dict) -> Dict:
    """Shadow-minus-primary latency histogram deltas, per (phase, nr)
    key and per phase.  Telemetry, never verdict material: dispatch
    phases are mechanism-specific by design."""
    out: Dict = {"unit": "cycles"}
    for section in ("per_syscall", "per_phase"):
        mine = primary_snapshot.get(section, {})
        theirs = shadow_snapshot.get(section, {})
        out[section] = {
            key: _percentile_delta(mine.get(key), theirs.get(key))
            for key in sorted(set(mine) | set(theirs))
        }
    return out


def side_configs(config: ShadowConfig) -> Tuple[RunConfig, RunConfig]:
    """The primary and shadow runs one experiment prepares."""
    return (_side_config(config, config.primary, "primary"),
            _side_config(config, config.shadow, "shadow"))


class _ShadowRun:
    """Internal state of one in-flight shadow experiment."""

    def __init__(self, config: ShadowConfig):
        self.config = config
        primary, shadow = side_configs(config)
        self.primary: PreparedRun = prepare(primary)
        self.shadow: PreparedRun = prepare(shadow)
        # Perfetto recording rides along on both sides so a divergence
        # bundle can always include the full event-level story.
        self.primary_trace = TraceSink(mechanism=config.primary,
                                       workload=config.workload)
        self.shadow_trace = TraceSink(mechanism=config.shadow,
                                      workload=config.workload)
        self.primary.kernel.bus.attach(self.primary_trace)
        self.shadow.kernel.bus.attach(self.shadow_trace)
        self.sink = DivergenceSink()
        self.primary.kernel.bus.attach(self.sink)
        self.divergences: List[Dict] = []
        self.primary_records: List[Dict] = []
        self.shadow_records: List[Dict] = []
        self.trace_divergences: List[Dict] = []
        # Flight recorder over the primary's recent exchanges — dumped
        # once, on the first divergence, so the forensics snapshot shows
        # what the traffic looked like when the disagreement surfaced.
        from repro.observability.spans import SpanFlightRecorder

        self.flight = SpanFlightRecorder(capacity=512)
        self.flight_path: Optional[str] = None

    def emit(self, kind: str, request: int, detail: str) -> None:
        self.divergences.append({"kind": kind, "request": request,
                                 "detail": detail})
        self.primary.kernel.bus.emit(
            ShadowDivergence, ts=self.primary.kernel.cycles.cycles, pid=0,
            tid=0, kind=kind,
            primary=self.config.primary, shadow=self.config.shadow,
            request=request, detail=detail)
        if self.flight_path is None and self.flight.recorded:
            import os

            from repro.observability.spans import flight_dir

            base = self.config.bundle_dir or flight_dir()
            self.flight_path = self.flight.dump(
                os.path.join(base,
                             f"shadow-flight-{self.config.primary}"
                             f"-vs-{self.config.shadow}.json"),
                reason=f"shadow-divergence:{kind}")

    # ---------------------------------------------------------- execution

    def drive_server(self) -> Tuple[int, int]:
        self.primary.boot()
        self.shadow.boot()
        mirror = MirroredSource(
            self.primary.traffic_source(), self.shadow.traffic_source(),
            on_mismatch=lambda m: self.emit("response", m.request,
                                            m.describe()))
        mirror.bind_trace(self.flight)
        mirror.warmup(self.config.warmup_rounds)
        # Compare steady-state traffic only: everything before this point
        # (boot, discovery rewrites, warmup) is mechanism-dependent.
        primary_start = len(self.primary.kernel.syscall_log)
        shadow_start = len(self.shadow.kernel.syscall_log)
        result = mirror.drive(self.config.requests)
        mirror.close()
        self.compare_traces(primary_start, shadow_start)
        return result.requests, result.failures

    def run_batch(self) -> Tuple[int, int]:
        primary_proc = self.primary.spawn()
        shadow_proc = self.shadow.spawn()
        self.primary.kernel.run_process(primary_proc,
                                        max_steps=self.config.max_steps)
        self.shadow.kernel.run_process(shadow_proc,
                                       max_steps=self.config.max_steps)
        if primary_proc.exit_status != shadow_proc.exit_status:
            self.emit("exit", 0,
                      f"exit status: primary {primary_proc.exit_status} "
                      f"!= shadow {shadow_proc.exit_status}")
        if bytes(primary_proc.output) != bytes(shadow_proc.output):
            self.emit("exit", 0,
                      f"output bytes: primary {len(primary_proc.output)}B "
                      f"!= shadow {len(shadow_proc.output)}B")
        self.compare_traces(primary_proc.premain_log_len,
                            shadow_proc.premain_log_len)
        return 0, 0

    def compare_traces(self, primary_start: int, shadow_start: int) -> None:
        self.primary_records = normalized_trace(self.primary.kernel,
                                                start=primary_start)
        self.shadow_records = normalized_trace(self.shadow.kernel,
                                               start=shadow_start)
        self.trace_divergences = diff_normalized(self.primary_records,
                                                 self.shadow_records)
        for divergence in self.trace_divergences:
            self.emit("trace", divergence["index"],
                      describe_divergence(divergence))

    # ------------------------------------------------------------ report

    def report(self, requests: int, failures: int) -> ShadowReport:
        count = len(self.sink)
        primary_latency = self.primary.suite["latency"].snapshot()
        shadow_latency = self.shadow.suite["latency"].snapshot()
        report = ShadowReport(
            primary=self.config.primary, shadow=self.config.shadow,
            workload=self.config.workload, seed=self.config.seed,
            requests=requests, failures=failures,
            divergence_count=count, budget=self.config.budget,
            verdict=verdict_for(count, self.config.budget),
            divergences=self.sink.snapshot(),
            latency_delta=latency_deltas(primary_latency, shadow_latency),
            counters={"primary": self.primary.counters.snapshot(),
                      "shadow": self.shadow.counters.snapshot()},
            analyzer_reports={"primary": self.primary.suite.report(),
                              "shadow": self.shadow.suite.report()},
            flight_path=self.flight_path)
        if count and self.config.bundle_dir is not None:
            from repro.shadow.bundle import write_bundle

            report.bundle_path = str(write_bundle(
                self.config.bundle_dir, report,
                primary_records=self.primary_records,
                shadow_records=self.shadow_records,
                trace_divergences=self.trace_divergences,
                primary_trace=self.primary_trace,
                shadow_trace=self.shadow_trace))
        if self.config.trace_out is not None:
            from repro.observability.export import write_chrome_trace

            write_chrome_trace(self.primary_trace, self.config.trace_out)
        return report


def run_shadow(config: ShadowConfig) -> ShadowReport:
    """Run one dark-launch experiment and return its verdict + evidence."""
    run = _ShadowRun(config)
    from repro.runapi import WORKLOADS

    if WORKLOADS[config.workload].kind == "server":
        requests, failures = run.drive_server()
    else:
        requests, failures = run.run_batch()
    return run.report(requests, failures)
