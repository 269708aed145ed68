"""One builder for simulator runs: ``RunConfig`` → :func:`run` → ``RunResult``.

Every harness in the repo — the evaluation pipeline, the conformance
cells, the shadow dark-launch harness, ad-hoc notebooks — stands up the
same machine: a seeded :class:`~repro.kernel.Kernel`, a workload
installed on it, an interposition mechanism from the registry, optional
offline-phase logs (K23), optional seeded fault injection, and a set of
observe-only bus sinks.  Historically each caller re-assembled that
recipe from ``evaluation.runner`` internals; this module makes it one
frozen config object and two functions:

    from repro.api import RunConfig, run

    result = run(RunConfig(mechanism="K23-ultra", workload="nginx",
                           seed=7))
    result.exit_status, result.counters, result.verdicts

:func:`prepare` is the two-phase variant: it returns a
:class:`PreparedRun` with the kernel built and the mechanism installed
but nothing executed, so lockstep harnesses (the shadow mirror) can
drive two prepared runs request-by-request themselves.

Workloads come in two kinds.  **batch** workloads (``stress`` and the
coreutils) spawn one process and run it to exit; **server** workloads
(``nginx``, ``lighttpd``, ``redis``) boot the server to its accept
loop and drive it with the in-repo wrk/redis-benchmark stand-ins.
Mechanism names are resolved case-insensitively against the registry
(``"k23-ultra"`` → ``"K23-ultra"``), so CLI surfaces need no separate
canonicalization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.faultinject.engine import FaultInjector
from repro.faultinject.schedule import FaultSchedule
from repro.interposers.registry import REGISTRY
from repro.observability.analyzers import Analyzer, AnalyzerSuite, PitfallVerdict
from repro.observability.sinks import CounterSink, Sink
from repro.traffic.config import TrafficConfig
from repro.workloads.clients import (HTTP_REQUEST, REDIS_GET,
                                     KeepAliveSource)

#: Steps the kernel runs after spawning a server so the master forks and
#: every worker reaches its accept loop (mirrors the evaluation runner).
SERVER_BOOT_STEPS = 2_000_000


# ------------------------------------------------------------- the workloads


@dataclass(frozen=True)
class WorkloadSpec:
    """One runnable workload: how to install it and how to drive it.

    Attributes:
        name: registry key (``"stress"``, ``"nginx"``, ...).
        kind: ``"batch"`` (spawn one process, run to exit) or
            ``"server"`` (boot to accept, drive with a load generator).
        installer: ``installer(kernel, params) -> program path``.
        port / payload / connections: load-generation defaults for
            server workloads.
    """

    name: str
    kind: str
    installer: Callable[..., str]
    port: int = 0
    payload: bytes = b""
    connections: int = 1


def _install_stress(kernel, params: Dict[str, int]) -> str:
    from repro.workloads.stress import STRESS_PATH, build_stress

    build_stress(params.get("iterations", 60)).register(kernel)
    return STRESS_PATH


def _coreutil(path: str) -> Callable[..., str]:
    def install(kernel, params: Dict[str, int]) -> str:
        from repro.workloads.coreutils import install_coreutils

        install_coreutils(kernel)
        return path
    return install


def _install_nginx(kernel, params: Dict[str, int]) -> str:
    from repro.workloads.nginx import install_nginx

    return install_nginx(kernel, workers=params.get("workers", 1),
                         file_size_kb=params.get("file_kb", 0),
                         multiconn=bool(params.get("multiconn", 0)))


def _install_lighttpd(kernel, params: Dict[str, int]) -> str:
    from repro.workloads.lighttpd import install_lighttpd

    return install_lighttpd(kernel, workers=params.get("workers", 1),
                            file_size_kb=params.get("file_kb", 0),
                            multiconn=bool(params.get("multiconn", 0)))


def _install_redis(kernel, params: Dict[str, int]) -> str:
    from repro.workloads.redis import install_redis

    # "workers" is the fleet-wide knob (the traffic engine speaks one
    # vocabulary across workloads); redis calls the same thing io_threads.
    io_threads = params.get("io_threads", params.get("workers", 1))
    return install_redis(kernel, io_threads=io_threads,
                         multiconn=bool(params.get("multiconn", 0)))


def _server_ports():
    from repro.workloads.lighttpd import LIGHTTPD_PORT
    from repro.workloads.nginx import NGINX_PORT
    from repro.workloads.redis import REDIS_PORT

    return NGINX_PORT, LIGHTTPD_PORT, REDIS_PORT

_NGINX_PORT, _LIGHTTPD_PORT, _REDIS_PORT = _server_ports()

#: Every workload :func:`run` understands, batch and server alike.
WORKLOADS: Dict[str, WorkloadSpec] = {
    "stress": WorkloadSpec("stress", "batch", _install_stress),
    "pwd": WorkloadSpec("pwd", "batch", _coreutil("/usr/bin/pwd")),
    "touch": WorkloadSpec("touch", "batch", _coreutil("/usr/bin/touch")),
    "ls": WorkloadSpec("ls", "batch", _coreutil("/usr/bin/ls")),
    "cat": WorkloadSpec("cat", "batch", _coreutil("/usr/bin/cat")),
    "clear": WorkloadSpec("clear", "batch", _coreutil("/usr/bin/clear")),
    "nginx": WorkloadSpec("nginx", "server", _install_nginx,
                          port=_NGINX_PORT, payload=HTTP_REQUEST),
    "lighttpd": WorkloadSpec("lighttpd", "server", _install_lighttpd,
                             port=_LIGHTTPD_PORT, payload=HTTP_REQUEST),
    "redis": WorkloadSpec("redis", "server", _install_redis,
                          port=_REDIS_PORT, payload=REDIS_GET),
}


# ---------------------------------------------------------------- the config


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated description of one simulator run.

    Attributes:
        mechanism: registry name, resolved case-insensitively at
            construction (``"k23-ultra"`` canonicalizes to
            ``"K23-ultra"``; unknown names raise
            :class:`~repro.interposers.registry.UnknownMechanismError`).
        workload: a :data:`WORKLOADS` key.
        seed: kernel seed (layout + scheduling determinism).
        schedule: optional pre-built seeded
            :class:`~repro.faultinject.schedule.FaultSchedule`; when set,
            a :class:`~repro.faultinject.engine.FaultInjector` is armed
            before execution.
        sinks: extra observe-only bus sinks to attach (a
            :class:`CounterSink` is always attached and feeds
            ``RunResult.counters``).
        analyzers: streaming analyzers; they are wrapped in one
            :class:`AnalyzerSuite` whose finished verdicts become
            ``RunResult.verdicts``.
        trace_path: when set, a Perfetto/Chrome trace of the run is
            written here (``RunResult.trace_path`` echoes it back).
        requests / connections / warmup_rounds: load-generation knobs
            for server workloads (ignored for batch ones).
        params: workload installer parameters as a sorted tuple of
            pairs, e.g. ``(("iterations", 300),)`` for stress or
            ``(("workers", 10),)`` for nginx — tuple-of-pairs keeps the
            config hashable.
        aslr: address-space layout randomization (off by default: the
            differential harnesses need layout-stable kernels).
        block_cache: force the interpreter mode (None = kernel default).
        max_steps: execution budget for batch runs.
        record: when set, a :class:`repro.replay.Recorder` writes a
            replay bundle (event stream + CoW machine checkpoints) into
            this directory.  Batch workloads only — server workloads
            hold live connections to host-side load generators, which a
            checkpoint cannot round-trip.
        replay_from: when set, :func:`run` replays a previously recorded
            bundle instead of executing fresh (mechanism/workload/seed
            must match the bundle's meta); a non-byte-identical replay
            raises :class:`repro.replay.ReplayDivergenceError`.
        checkpoint_interval: retired instructions between checkpoints
            while recording.
        traffic: when set (a :class:`repro.traffic.TrafficConfig` or an
            equivalent dict), :func:`run` dispatches to the open-loop
            traffic engine instead of the closed-loop driver: the
            schedule in *traffic* is pushed through a fleet of this
            workload's servers under this mechanism, and the resulting
            :class:`~repro.traffic.slo.SLOReport` rides back on
            ``RunResult.slo``.  Server workloads only; exclusive with
            ``record``/``replay_from`` (the engine builds its own fleet
            of kernels, so per-run ``sinks``/``analyzers`` do not attach
            to them — fleet observability flows through the engine's own
            bus events and the report).
    """

    mechanism: str
    workload: str
    seed: int = 0
    schedule: Optional[FaultSchedule] = None
    sinks: Tuple[Sink, ...] = ()
    analyzers: Tuple[Analyzer, ...] = ()
    trace_path: Optional[str] = None
    requests: int = 32
    connections: Optional[int] = None
    warmup_rounds: int = 1
    params: Tuple[Tuple[str, int], ...] = ()
    aslr: bool = False
    block_cache: Optional[bool] = None
    max_steps: int = 10_000_000
    record: Optional[str] = None
    replay_from: Optional[str] = None
    checkpoint_interval: int = 1_000
    traffic: Optional[TrafficConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mechanism",
                           REGISTRY.canonical(self.mechanism))
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}; "
                             f"valid: {', '.join(WORKLOADS)}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, "
                             f"got {self.seed!r}")
        if self.schedule is not None \
                and not isinstance(self.schedule, FaultSchedule):
            raise ValueError("schedule must be a FaultSchedule "
                             "(build one with repro.api.build_schedule)")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.connections is not None and self.connections < 1:
            raise ValueError("connections must be >= 1 when given")
        if self.record is not None and self.replay_from is not None:
            raise ValueError("record and replay_from are mutually "
                             "exclusive")
        if self.record is not None and self.spec.kind != "batch":
            raise ValueError(
                f"record= supports batch workloads only; {self.workload!r} "
                f"is a server workload (its connections are shared with "
                f"host-side load generators, which a checkpoint cannot "
                f"round-trip)")
        if self.checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1, "
                             f"got {self.checkpoint_interval}")
        if self.traffic is not None:
            if isinstance(self.traffic, dict):
                object.__setattr__(self, "traffic",
                                   TrafficConfig.from_dict(self.traffic))
            elif not isinstance(self.traffic, TrafficConfig):
                raise ValueError(
                    "traffic must be a TrafficConfig (or an equivalent "
                    "dict; build one with repro.api.TrafficConfig)")
            if self.spec.kind != "server":
                raise ValueError(
                    f"traffic= needs a server workload; {self.workload!r} "
                    f"is a batch workload with no serving loop to load")
            if self.record is not None or self.replay_from is not None:
                raise ValueError("traffic is mutually exclusive with "
                                 "record/replay_from")
        object.__setattr__(self, "sinks", tuple(self.sinks))
        object.__setattr__(self, "analyzers", tuple(self.analyzers))
        object.__setattr__(self, "params",
                           tuple(sorted(tuple(p) for p in self.params)))

    @property
    def spec(self) -> WorkloadSpec:
        return WORKLOADS[self.workload]


@dataclass(frozen=True)
class RunResult:
    """What one run produced — the JSON-able outcome surface.

    ``exit_status`` is the batch process's exit status (None for server
    workloads, which never exit); ``requests``/``failures`` are the
    load-generation tallies (0 for batch runs); ``counters`` is the
    always-attached :class:`CounterSink` snapshot; ``verdicts`` are the
    finished analyzer findings; ``trace_path`` names the written
    Perfetto trace, if one was requested; ``slo`` is the merged
    :class:`~repro.traffic.slo.SLOReport` for ``traffic=`` runs (None
    otherwise — for traffic runs ``requests``/``failures`` echo the
    report's completed/shed totals).
    """

    mechanism: str
    workload: str
    seed: int
    exit_status: Optional[int]
    cycles: int = 0
    requests: int = 0
    failures: int = 0
    counters: Dict = field(default_factory=dict, compare=False)
    verdicts: Tuple[PitfallVerdict, ...] = ()
    trace_path: Optional[str] = None
    slo: Optional[object] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        """Batch: clean exit.  Server: every driven request answered."""
        if self.exit_status is not None:
            return self.exit_status == 0
        return self.failures == 0


# ----------------------------------------------------------- offline phase


@functools.lru_cache(maxsize=None)
def _offline_logs(workload: str, params: Tuple, offline_seed: int,
                  aslr: bool) -> Mapping[str, str]:
    """Exported K23 offline logs for one workload build.  The offline
    phase is faultless and mechanism-independent, so it is memoised per
    process on exactly its inputs: shadow pairs and repeated runs
    re-import the same read-only mapping rather than recompute it."""
    from repro.core import OfflinePhase
    from repro.kernel import Kernel

    spec = WORKLOADS[workload]
    kernel = Kernel(seed=offline_seed, aslr=aslr)
    path = spec.installer(kernel, dict(params))
    offline = OfflinePhase(kernel)
    if spec.kind == "server":
        def driver(kern, proc):
            kern.run(max_steps=SERVER_BOOT_STEPS)
            source = KeepAliveSource(kern, spec.port,
                                     spec.connections, spec.payload)
            source.drive(4 * spec.connections)
            source.close()

        offline.run(path, driver=driver, max_steps=20_000_000)
    else:
        offline.run(path, max_steps=20_000_000)
    return MappingProxyType(offline.export())


# ------------------------------------------------------------- preparation


@dataclass
class PreparedRun:
    """A built-but-unexecuted run: kernel up, mechanism installed.

    :meth:`execute` finishes the standard way; lockstep harnesses
    instead call :meth:`boot` + :meth:`traffic_source` (server) or
    :meth:`spawn` (batch) and drive the kernel themselves, then
    :meth:`finish` to collect the :class:`RunResult`.
    """

    config: RunConfig
    kernel: object
    path: str
    counters: CounterSink
    suite: Optional[AnalyzerSuite] = None
    trace_sink: Optional[object] = None
    injector: Optional[FaultInjector] = None
    process: Optional[object] = None
    recorder: Optional[object] = None

    @property
    def spec(self) -> WorkloadSpec:
        return self.config.spec

    def spawn(self):
        """Spawn the workload process (batch and server boot both start
        here); execution has not begun yet."""
        self.process = self.kernel.spawn_process(self.path)
        return self.process

    def boot(self) -> None:
        """Server workloads: run until the workers sit in accept."""
        if self.process is None:
            self.spawn()
        self.kernel.run(max_steps=SERVER_BOOT_STEPS)

    def traffic_source(self) -> KeepAliveSource:
        """The closed-loop :class:`~repro.workloads.clients.TrafficSource`
        for this server (lockstep harnesses drive it themselves)."""
        spec = self.spec
        connections = self.config.connections or spec.connections
        return KeepAliveSource(self.kernel, spec.port, connections,
                               spec.payload)

    def execute(self) -> RunResult:
        """Run to completion the standard way and collect the result."""
        before = self.kernel.cycles.cycles
        if self.spec.kind == "server":
            self.boot()
            source = self.traffic_source()
            source.warmup(self.config.warmup_rounds)
            drive = source.drive(self.config.requests)
            source.close()
            return self.finish(cycles=drive.cycles,
                               requests=drive.requests,
                               failures=drive.failures)
        self.spawn()
        self.kernel.run_process(self.process,
                                max_steps=self.config.max_steps)
        return self.finish(cycles=self.kernel.cycles.cycles - before)

    def finish(self, cycles: int = 0, requests: int = 0,
               failures: int = 0) -> RunResult:
        """Collect counters/verdicts/trace into the final RunResult."""
        exit_status = None
        if self.process is not None and self.spec.kind == "batch":
            exit_status = self.process.exit_status
        if self.recorder is not None:
            # Off the measured path: the bundle (events, log, pickled
            # checkpoints) is flushed after execution completed.
            self.recorder.close(exit_status=exit_status)
        verdicts: Tuple[PitfallVerdict, ...] = ()
        if self.suite is not None:
            verdicts = tuple(self.suite.finish())
        trace_path = None
        if self.trace_sink is not None:
            from repro.observability.export import write_chrome_trace

            trace_path = str(write_chrome_trace(self.trace_sink,
                                                self.config.trace_path))
        return RunResult(
            mechanism=self.config.mechanism,
            workload=self.config.workload,
            seed=self.config.seed,
            exit_status=exit_status,
            cycles=cycles,
            requests=requests,
            failures=failures,
            counters=self.counters.snapshot(),
            verdicts=verdicts,
            trace_path=trace_path,
        )


def prepare(config: RunConfig) -> PreparedRun:
    """Build the machine for *config* without executing anything.

    Deterministic by construction: fixed seed, torn-window dice off,
    fault variety only from the explicit schedule.
    """
    from repro.kernel import Kernel

    kernel = Kernel(seed=config.seed, aslr=config.aslr)
    kernel.torn_window_probability = 0.0
    if config.block_cache is not None:
        kernel.block_cache_enabled = config.block_cache
    counters = CounterSink()
    kernel.bus.attach(counters)
    suite = None
    if config.analyzers:
        suite = AnalyzerSuite(config.analyzers)
        kernel.bus.attach(suite)
    for sink in config.sinks:
        kernel.bus.attach(sink)
    trace_sink = None
    if config.trace_path is not None:
        from repro.observability.export import TraceSink

        trace_sink = TraceSink(mechanism=config.mechanism,
                               workload=config.workload)
        kernel.bus.attach(trace_sink)
    path = config.spec.installer(kernel, dict(config.params))
    if REGISTRY.needs_offline(config.mechanism):
        from repro.core.offline import import_logs

        import_logs(kernel, _offline_logs(config.workload, config.params,
                                          config.seed + 1000, config.aslr))
    REGISTRY.create(config.mechanism, kernel)
    injector = None
    if config.schedule is not None:
        injector = FaultInjector(kernel, config.schedule)
    recorder = None
    if config.record is not None:
        from repro.replay.recorder import Recorder

        recorder = Recorder(config.record, kernel, config=config,
                            interval=config.checkpoint_interval)
        kernel.bus.attach(recorder)
        kernel.recorder = recorder
    return PreparedRun(config=config, kernel=kernel, path=path,
                       counters=counters, suite=suite,
                       trace_sink=trace_sink, injector=injector,
                       recorder=recorder)


def run(config: RunConfig) -> RunResult:
    """Build and execute one run: ``run(config) == prepare(config).execute()``.

    With ``replay_from=`` set, the run is a **replay** of the recorded
    bundle (restored from its last checkpoint and verified byte-identical)
    rather than a fresh execution.  With ``traffic=`` set, the run is an
    **open-loop load test**: the traffic engine pushes the configured
    schedule through a fleet of this workload's servers and the merged
    :class:`~repro.traffic.slo.SLOReport` comes back on ``result.slo``."""
    if config.traffic is not None:
        from repro.traffic.engine import run_loadtest

        report = run_loadtest([config.mechanism], config.workload,
                              config.traffic, config.seed)
        totals = report.mechanisms[config.mechanism]["totals"]
        return RunResult(
            mechanism=config.mechanism,
            workload=config.workload,
            seed=config.seed,
            exit_status=None,
            requests=totals["completed"],
            failures=totals["shed"],
            slo=report,
        )
    if config.replay_from is not None:
        from repro.replay.replayer import run_replay

        return run_replay(config)
    return prepare(config).execute()
