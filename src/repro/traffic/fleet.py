"""Driving real interposed server kernels with open-loop traffic.

Two jobs, one substrate:

- **calibration** — measure per-request-kind *service time* on a real
  multiconn server kernel under the mechanism being tested: a single
  connection, requests driven serially, simulated-cycle deltas per
  round trip.  Because every engine tier retires the identical cycle
  stream (the PR 7 invariant), the table is tier-invariant, which is
  what lets the model fabric inherit the determinism guarantee.
- **full serve** (``--serve-mode full``) — drive *every* scheduled
  request through the kernels.  The kernel's admission seam
  (``kernel.admission``, consulted at scheduler-round boundaries)
  releases arrivals when their virtual due time arrives, jumping the
  cycle clock forward over idle gaps; completion is observed when a
  connection's response bytes land.  Ground truth for the model, at
  real-execution cost.

Virtual time is cycle-anchored: ``due_cycles = epoch + t_ns * CLOCK_HZ
// 1e9``; latency is ``(completion_cycles - due_cycles)`` converted
back to integer nanoseconds.  Per-connection serialization (one
outstanding request per keep-alive connection) is enforced host-side —
that queue wait is measured latency, exactly as in the model fabric.
"""

from __future__ import annotations

import json
import statistics
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.cpu.cycles import CLOCK_HZ
from repro.observability.analyzers.latency import LogHistogram
from repro.traffic.config import TrafficConfig
from repro.traffic.loadbalancer import DEPTH_SAMPLES, server_result_doc
from repro.traffic.schedule import NS, ArrivalSchedule

if TYPE_CHECKING:
    from repro.runapi import RunConfig

#: Request-payload padding per kind.  Redis runs smaller pads: its
#: 256-byte receive buffer must take base request + pad in one read so
#: requests never split across recvfrom calls.
DEFAULT_KIND_PADDING = {"small": 0, "medium": 128, "large": 384}
REDIS_KIND_PADDING = {"small": 0, "medium": 64, "large": 128}

#: Batched host-side connects: the listener backlog is 128, so the
#: fleet connects in sub-backlog batches with an accept drain between.
CONNECT_BATCH = 64

#: Kernel steps granted per outer drive slice in full-serve mode.
DRIVE_SLICE_STEPS = 5_000_000


def kind_padding(workload: str) -> Dict[str, int]:
    return REDIS_KIND_PADDING if workload == "redis" \
        else DEFAULT_KIND_PADDING


def request_payload(workload: str, base: bytes, kind: str) -> bytes:
    """The wire bytes for one request of *kind* (pad with filler the
    servers ignore but must receive and copy)."""
    return base + b"x" * kind_padding(workload)[kind]


def response_length(workload: str, params: Dict[str, int]) -> int:
    """Exact response bytes per request — completion detection."""
    if workload == "redis":
        return 32
    return 128 + (4096 if params.get("file_kb", 0) else 0)


def traffic_workload_params(traffic: TrafficConfig
                            ) -> Tuple[Tuple[str, int], ...]:
    """Installer params for a fleet server kernel: event-loop serving
    with the configured worker count."""
    return (("multiconn", 1), ("workers", traffic.workers))


def server_run_config(mechanism: str, workload: str, traffic: TrafficConfig,
                      seed: int) -> RunConfig:
    """The run one fleet server kernel (or its calibration) boots."""
    from repro.runapi import RunConfig

    return RunConfig(mechanism=mechanism, workload=workload, seed=seed,
                     params=traffic_workload_params(traffic))


def cycles_of_ns(t_ns: int) -> int:
    return t_ns * CLOCK_HZ // NS


def ns_of_cycles(cycles: int) -> int:
    return cycles * NS // CLOCK_HZ


# ------------------------------------------------------------- calibration


#: calibration_key → service table doc.
_CALIBRATION_CACHE: Dict[Tuple, Dict] = {}


def calibration_key(mechanism: str, workload: str, traffic: TrafficConfig,
                    seed: int) -> Tuple:
    """The memo key of :func:`calibrate_service_table`: the run, the
    calibration drive (workers, request count, sorted kinds) and the
    cycle model's constants."""
    from repro.evaluation.cache import model_constants

    kinds = tuple(sorted({key.rsplit(":", 1)[-1]
                          for key, _ in traffic.mix}))
    return (mechanism, workload, seed, traffic.workers,
            traffic.calibration_requests, kinds,
            json.dumps(model_constants(), sort_keys=True))


def calibrate_service_table(mechanism: str, workload: str,
                            traffic: TrafficConfig, seed: int) -> Dict:
    """Measure per-kind service cycles on a real interposed kernel.

    Returns a JSON-safe doc: ``{"kinds": {kind: {"cycles": c, "ns": n,
    "samples": m}}}``.  Keyed off the *base* seed (never the shard), so
    every shard of a sharded run computes — or re-uses — the identical
    table.  The memo also keys on the model constants the pipeline's
    cell key records, so a cost patched in-process re-calibrates
    instead of reading back the unpatched table.
    """
    key = calibration_key(mechanism, workload, traffic, seed)
    kinds = key[5]  # the sorted request kinds
    cached = _CALIBRATION_CACHE.get(key)
    if cached is not None:
        return cached

    from repro.runapi import boot

    config = server_run_config(mechanism, workload, traffic, seed)
    prepared = boot(config)
    prepared.boot()
    kernel, spec = prepared.kernel, prepared.spec
    expected = response_length(workload, dict(config.params))
    connection = kernel.net.connect(spec.port)
    kernel.run(max_steps=400_000)  # accept + epoll registration

    per_kind = max(8, traffic.calibration_requests // max(1, len(kinds)))
    table: Dict[str, Dict] = {}
    for kind in kinds:
        payload = request_payload(workload, spec.payload, kind)
        # The per-kind syscall sub-span profile rides on the existing
        # bus events: a LatencyAnalyzer observes the calibration drive
        # (sinks are observe-only, so the measured cycles are
        # unperturbed — the lockstep property).
        from repro.observability.analyzers.latency import LatencyAnalyzer
        from repro.observability.spans import syscall_profile

        analyzer = LatencyAnalyzer()
        kernel.bus.attach(analyzer)
        samples: List[int] = []
        for index in range(per_kind + 4):  # first 4 are warmup
            before = kernel.cycles.cycles
            connection.client_send(payload)
            kernel.run(max_steps=400_000)
            response = connection.client_recv_all()
            if len(response) != expected:
                raise RuntimeError(
                    f"calibration: {workload} under {mechanism}, "
                    f"seed={seed}: answered "
                    f"{len(response)}B for a {kind} request "
                    f"(expected {expected}B)")
            samples.append(kernel.cycles.cycles - before)
        kernel.bus.detach(analyzer)
        steady = samples[4:]
        cycles = statistics.median_low(steady)
        table[kind] = {"cycles": cycles, "ns": ns_of_cycles(cycles),
                       "samples": len(steady),
                       "syscalls": syscall_profile(analyzer, per_kind + 4)}
    connection.client_close()
    kernel.run(max_steps=200_000)
    doc = {"mechanism": mechanism, "workload": workload, "kinds": table}
    _CALIBRATION_CACHE[key] = doc
    return doc


def service_ns_table(calibration: Dict, schedule: ArrivalSchedule
                     ) -> Dict[Tuple[int, int], int]:
    """Flatten a calibration doc into the fabric's ``(tenant, kind) →
    service_ns`` lookup (service time is kind-determined; the tenant
    axis exists so future per-tenant cost models slot in)."""
    kinds = calibration["kinds"]
    return {(t, k): int(kinds[kind_name]["ns"])
            for t in range(len(schedule.tenant_names))
            for k, kind_name in enumerate(schedule.kind_names)}


def resolve_rate(traffic: TrafficConfig, workload: str,
                 seed: int) -> TrafficConfig:
    """Resolve ``rate=0`` (auto) to a concrete base rate.

    Auto rate targets 10 % of the *native* fleet capacity, so the
    default ramp (1..32×) sweeps 10 %–320 % and the knee lands
    mid-staircase for every mechanism under the *same* schedule —
    resolution uses only the native calibration, never the mechanism
    under test, to keep the schedule mechanism-independent.
    """
    if traffic.rate:
        return traffic
    calibration = calibrate_service_table("native", workload, traffic, seed)
    weight_total = 0
    weighted_ns = 0
    for key, weight in traffic.mix:
        kind = key.rsplit(":", 1)[-1]
        weighted_ns += int(calibration["kinds"][kind]["ns"]) * weight
        weight_total += weight
    mean_ns = max(1, weighted_ns // weight_total)
    capacity = traffic.servers * traffic.workers * NS // mean_ns
    return traffic.with_rate(max(1, capacity // 10))


# ------------------------------------------------------------- full serve


class RoundAdmission:
    """``kernel.admission`` driver: open-loop arrivals into live conns.

    Consulted at every scheduler-round boundary; returns True when it
    changed the world (delivered a request, collected a response, or
    jumped the idle clock), which the scheduler counts as progress.
    """

    def __init__(self, kernel, connections: Dict[int, object],
                 arrivals: List[Tuple[int, int, int, int, int, int]],
                 payloads: Dict[int, bytes], expected_len: int,
                 epoch_cycles: int, queue_limit: int, stages: int,
                 span_ns: int, server: int = 0, trace=None):
        self.kernel = kernel
        self.server = server
        self.connections = connections
        #: (t_ns, stage, tenant, kind, conn, index) in arrival order.
        self.arrivals = arrivals
        self.payloads = payloads
        self.expected_len = expected_len
        self.epoch = epoch_cycles
        self.queue_limit = queue_limit
        self._pos = 0
        self._queued = 0
        self.busy: Dict[int, Tuple[int, int, int, int, int, int]] = {}
        self.conn_queue: Dict[int, deque] = {}
        #: Optional :class:`repro.observability.spans.TraceContext`.
        self.trace = trace
        # index -> [admission_cycles, release_cycles, conn_wait_cycles];
        # conn_wait appended at send time, so a 2-entry list marks a
        # request still parked on its connection's queue.
        self._span_meta: Dict[int, List[int]] = {}

        self.offered: Dict[Tuple[int, int, int], int] = {}
        self.completed: Dict[Tuple[int, int, int], int] = {}
        self.shed: Dict[Tuple[int, int, int], int] = {}
        self.latency: Dict[Tuple[int, int, int], LogHistogram] = {}
        self.stage_max_depth = [0] * stages
        self.depth_series: List[Tuple[int, int, int]] = []
        self._sample_every = max(1, span_ns // DEPTH_SAMPLES)
        self._next_sample_ns = 0

    @property
    def done(self) -> bool:
        return self._pos >= len(self.arrivals) and not self.busy \
            and self._queued == 0

    def on_round_boundary(self, retired: int) -> bool:
        progressed = self._collect()
        now = self.kernel.cycles.cycles
        progressed |= self._release(now)
        if not progressed and not self.busy \
                and self._pos < len(self.arrivals):
            # Fleet idle, next arrival in the future: jump virtual time
            # (blocked threads burn no cycles, so the gap is free).
            target = self.epoch + cycles_of_ns(self.arrivals[self._pos][0])
            if target > now:
                self.kernel.cycles.cycles = target
            progressed = self._release(self.kernel.cycles.cycles)
        self._sample()
        return progressed

    # ---------------------------------------------------------- internals

    def _collect(self) -> bool:
        """Harvest completed responses (exactly ``expected_len`` bytes
        per request thanks to per-connection serialization)."""
        collected = False
        now = self.kernel.cycles.cycles
        for conn_id in list(self.busy):
            connection = self.connections[conn_id]
            if sum(len(c) for c in connection.to_client) < self.expected_len:
                continue
            connection.client_recv_all()
            due_cycles, stage, tenant, kind, _conn, index = \
                self.busy.pop(conn_id)
            key = (stage, tenant, kind)
            self.completed[key] = self.completed.get(key, 0) + 1
            hist = self.latency.get(key)
            if hist is None:
                hist = self.latency[key] = LogHistogram()
            latency_ns = ns_of_cycles(max(0, now - due_cycles))
            hist.record(latency_ns)
            if self.trace is not None and index >= 0:
                meta = self._span_meta.pop(index)
                # The span's service stage is the closing remainder, so
                # cycle→ns floor rounding can never leave a residual
                # (floor(a)+floor(b) <= floor(a+b) keeps it >= 0).
                self.trace.record(
                    index=index, conn=conn_id, stage=stage, tenant=tenant,
                    kind=kind, arrival_ns=ns_of_cycles(due_cycles
                                                       - self.epoch),
                    latency_ns=latency_ns,
                    admission_ns=ns_of_cycles(meta[0]),
                    conn_wait_ns=ns_of_cycles(meta[2]), ts=now)
            collected = True
            pending = self.conn_queue.get(conn_id)
            if pending:
                request = pending.popleft()
                if not pending:
                    del self.conn_queue[conn_id]
                self._queued -= 1
                self._send(conn_id, request, now)
        return collected

    def _release(self, now: int) -> bool:
        released = False
        while self._pos < len(self.arrivals):
            t_ns, stage, tenant, kind, conn_id, index = \
                self.arrivals[self._pos]
            due_cycles = self.epoch + cycles_of_ns(t_ns)
            if due_cycles > now:
                break
            self._pos += 1
            key = (stage, tenant, kind)
            self.offered[key] = self.offered.get(key, 0) + 1
            request = (due_cycles, stage, tenant, kind, conn_id, index)
            tracing = self.trace is not None and index >= 0
            if tracing:
                # Admission wait: the scheduler-round granularity of the
                # admission seam — release happens at the first round
                # boundary at/after the virtual due time.
                self._span_meta[index] = [now - due_cycles, now]
            if conn_id in self.busy:
                if self._queued >= self.queue_limit:
                    self.shed[key] = self.shed.get(key, 0) + 1
                    if tracing:
                        admission = self._span_meta.pop(index)[0]
                        self.trace.record(
                            index=index, conn=conn_id, stage=stage,
                            tenant=tenant, kind=kind,
                            arrival_ns=ns_of_cycles(due_cycles - self.epoch),
                            latency_ns=ns_of_cycles(admission),
                            admission_ns=ns_of_cycles(admission),
                            shed=True, ts=now)
                    continue
                self.conn_queue.setdefault(conn_id, deque()).append(request)
                self._queued += 1
                if self._queued > self.stage_max_depth[stage]:
                    self.stage_max_depth[stage] = self._queued
            else:
                self._send(conn_id, request, now)
            released = True
        return released

    def _send(self, conn_id: int, request: Tuple, now: int) -> None:
        if self.trace is not None and request[5] >= 0:
            meta = self._span_meta[request[5]]
            meta.append(now - meta[1])  # conn-wait: release -> send
        self.busy[conn_id] = request
        self.connections[conn_id].client_send(self.payloads[request[3]])

    def record_stalled(self, now: int) -> None:
        """Span-record every unfinished request as shed+stalled — called
        by stall-shed detection *before* the tallies are cleared, so the
        flight-recorder dump carries the wedged requests' partial
        timelines (how far each one got before the fleet died)."""
        if self.trace is None:
            return
        for conn_id, request in sorted(self.busy.items()):
            due_cycles, stage, tenant, kind, _conn, index = request
            meta = self._span_meta.pop(index, None)
            if index < 0 or meta is None:
                continue
            self.trace.record(
                index=index, conn=conn_id, stage=stage, tenant=tenant,
                kind=kind, arrival_ns=ns_of_cycles(due_cycles - self.epoch),
                latency_ns=ns_of_cycles(max(0, now - due_cycles)),
                admission_ns=ns_of_cycles(meta[0]),
                conn_wait_ns=ns_of_cycles(meta[2]),
                shed=True, stalled=True, ts=now)
        for conn_id, pending in sorted(self.conn_queue.items()):
            for request in pending:
                due_cycles, stage, tenant, kind, _conn, index = request
                meta = self._span_meta.pop(index, None)
                if index < 0 or meta is None:
                    continue
                # Never sent: still waiting on the connection since its
                # release — conn-wait runs to the stall point.
                self.trace.record(
                    index=index, conn=conn_id, stage=stage, tenant=tenant,
                    kind=kind,
                    arrival_ns=ns_of_cycles(due_cycles - self.epoch),
                    latency_ns=ns_of_cycles(max(0, now - due_cycles)),
                    admission_ns=ns_of_cycles(meta[0]),
                    conn_wait_ns=ns_of_cycles(max(0, now - meta[1])),
                    shed=True, stalled=True, ts=now)

    def _sample(self) -> None:
        now_ns = ns_of_cycles(max(0, self.kernel.cycles.cycles - self.epoch))
        while self._next_sample_ns <= now_ns:
            sample = (self._next_sample_ns, self._queued, len(self.busy))
            self.depth_series.append(sample)
            if self.kernel.bus.enabled:
                from repro.observability.events import QueueDepthSample

                self.kernel.bus.emit(
                    QueueDepthSample, ts=self.kernel.cycles.cycles, pid=0,
                    tid=0,
                    server=self.server, depth=sample[1],
                    in_flight=sample[2], t_ns=sample[0])
            self._next_sample_ns += self._sample_every


def connect_fleet(kernel, port: int, conn_ids: List[int]) -> Dict[int, object]:
    """Open host connections in sub-backlog batches, draining accepts
    between batches so the listener backlog (128) never overflows."""
    connections: Dict[int, object] = {}
    for start in range(0, len(conn_ids), CONNECT_BATCH):
        for conn_id in conn_ids[start:start + CONNECT_BATCH]:
            connections[conn_id] = kernel.net.connect(port)
        kernel.run(max_steps=400_000)
    return connections


def run_server_full(mechanism: str, workload: str, traffic: TrafficConfig,
                    seed: int, server: int,
                    schedule: ArrivalSchedule, trace=None) -> Dict:
    """Serve one fleet server's arrival subsequence on a real kernel.

    Returns the same shard-result doc shape as the model fabric's
    :func:`~repro.traffic.loadbalancer.simulate_server`.  *trace* (a
    :class:`repro.observability.spans.TraceContext`) enables span
    capture; its flight-recorder ring is dumped automatically when
    stall-shed detection fires.
    """
    from repro.runapi import boot

    config = server_run_config(mechanism, workload, traffic, seed + server)
    prepared = boot(config)
    prepared.boot()
    kernel, spec = prepared.kernel, prepared.spec
    expected = response_length(workload, dict(config.params))

    conn_ids = [c for c in range(traffic.connections)
                if c % traffic.servers == server]
    connections = connect_fleet(kernel, spec.port, conn_ids)

    # Warm the serve path (JIT tiers, caches) before the epoch anchors.
    warm = connections[conn_ids[0]]
    payloads = {k: request_payload(workload, spec.payload, kind_name)
                for k, kind_name in enumerate(schedule.kind_names)}
    for _ in range(4):
        warm.client_send(payloads[0])
        kernel.run(max_steps=400_000)
        warm.client_recv_all()

    if trace is not None:
        # The kernel exists only inside this call: late-bind the bus so
        # RequestSpan events reach any attached sinks (null-sink guard
        # still applies at every emit).
        trace.bus = kernel.bus
    arrivals = list(schedule.arrivals(server))
    admission = RoundAdmission(
        kernel, connections, arrivals, payloads, expected,
        epoch_cycles=kernel.cycles.cycles, queue_limit=traffic.queue_limit,
        stages=len(traffic.ramp), span_ns=max(1, schedule.span_ns()),
        server=server, trace=trace)
    kernel.admission = admission
    try:
        stalled = 0
        while not admission.done:
            before = admission._pos, len(admission.busy), admission._queued
            kernel.run(max_steps=DRIVE_SLICE_STEPS)
            after = admission._pos, len(admission.busy), admission._queued
            stalled = stalled + 1 if after == before else 0
            if stalled >= 3:
                # Wedged fleet (e.g. a mechanism killed the workers):
                # count every unfinished request as shed.
                admission.record_stalled(kernel.cycles.cycles)
                for request in list(admission.busy.values()):
                    key = (request[1], request[2], request[3])
                    admission.shed[key] = admission.shed.get(key, 0) + 1
                admission.busy.clear()
                for pending in admission.conn_queue.values():
                    for request in pending:
                        key = (request[1], request[2], request[3])
                        admission.shed[key] = admission.shed.get(key, 0) + 1
                admission.conn_queue.clear()
                admission._queued = 0
                admission._pos = len(admission.arrivals)
                if trace is not None:
                    from repro.observability.spans import flight_dir
                    import os as _os

                    trace.flight.dump(
                        _os.path.join(
                            flight_dir(),
                            f"stallshed-{mechanism}-{workload}"
                            f"-s{server}.json"),
                        reason="stall-shed")
                break
    finally:
        kernel.admission = None
    for connection in connections.values():
        connection.client_close()
    kernel.run(max_steps=400_000)
    if kernel.bus.enabled:
        from repro.observability.events import TrafficStageStats

        base_rate = traffic.rate or 0
        for stage, multiplier in enumerate(traffic.ramp):
            stage_hist = LogHistogram()
            for (s, _t, _k), hist in admission.latency.items():
                if s == stage:
                    stage_hist.merge(hist)
            kernel.bus.emit(
                TrafficStageStats, ts=kernel.cycles.cycles, pid=0, tid=0,
                stage=stage,
                rate=base_rate * multiplier,
                offered=sum(n for (s, _t, _k), n
                            in admission.offered.items() if s == stage),
                completed=sum(n for (s, _t, _k), n
                              in admission.completed.items() if s == stage),
                shed=sum(n for (s, _t, _k), n
                         in admission.shed.items() if s == stage),
                p99_ns=stage_hist.percentile(99),
                max_depth=admission.stage_max_depth[stage])
    return server_result_doc(server, admission.offered, admission.completed,
                             admission.shed, admission.latency,
                             admission.stage_max_depth,
                             admission.depth_series)

