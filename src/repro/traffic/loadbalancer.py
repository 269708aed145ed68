"""The simulated load balancer: queue-leveled, connection-sharded.

Model-mode heart of the traffic engine.  Arrivals (from the seeded
schedule) flow through a per-server *leveling queue* into a pool of
worker channels — the textbook queue-based-load-leveling shape — with
two production constraints the closed-loop harness never exercises:

- **connection serialization** — one outstanding request per
  connection (HTTP/1.1 keep-alive without pipelining): a request whose
  connection is busy waits client-side, and that wait *is* measured
  latency;
- **bounded queue** — past ``queue_limit`` the balancer sheds
  (503-style); shed counts per (stage, tenant, kind) feed the knee.

Everything is integer virtual nanoseconds driven by a two-source event
merge (arrivals column + completion heap, ``(time, seq)``-ordered), so
a server's simulation is a pure function of its arrival subsequence and
the calibrated service table — the property that makes ``--jobs``
sharding by server exact rather than approximate.

Service times come from the calibration pass
(:func:`repro.traffic.fleet.calibrate_service_table`): per-request-kind
cycles measured on a *real* interposed kernel, converted once to
nanoseconds.  The fabric never invents cost — it only schedules it.

Per request the loop touches one small integer key, ``kid = (stage · T
+ tenant) · K + kind`` for ``T`` tenants and ``K`` kinds: service
times, offered/shed tallies and histogram state are lists indexed by
it, and the ``(stage, tenant, kind)`` tables exist only in
:meth:`ServerSim.result`.  The schedule computes the key column once
(:attr:`repro.traffic.schedule.ArrivalSchedule.keys`, ``stage`` by
``stage_of``'s rule) and each server's arrivals stream in as
``(t_ns, kid, conn, index)`` tuples zipped lazily from the columns.
No per-server tuple list is built: at 2·10^5 requests one would be
faster still but would double the run's peak RSS.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.observability.analyzers.latency import (SUB_BUCKET_BITS,
                                                    LogHistogram)

#: Queue-depth samples per server across the schedule span.
DEPTH_SAMPLES = 200

#: The arrival that ends a draining run: it sorts after every completion.
_DRAIN = (math.inf, 0, 0, -1)


class ServerSim:
    """Discrete-event simulation of one fleet server.

    Feed arrivals in schedule order via :meth:`run` (or one at a time
    via :meth:`offer`, then :meth:`drain`); read the JSON-safe result
    from :meth:`result`.
    ``emit(kind, payload)`` (optional) mirrors queue-depth samples onto
    an event bus when the engine runs inside a kernel-attached context.

    Each request carries one dense key, ``kid = (stage * tenants +
    tenant) * kinds + kind`` (the layout of
    :attr:`repro.traffic.schedule.ArrivalSchedule.keys`), where
    ``tenants`` and ``kinds`` are the extents of *service_ns*'s
    ``(tenant, kind)`` keys.  Service times, tallies and histogram state
    are lists indexed by it; the ``(stage, tenant, kind)``-keyed tables
    are built only when read.
    """

    def __init__(self, server: int, workers: int, queue_limit: int,
                 service_ns: Dict[Tuple[int, int], int], stages: int,
                 sample_every_ns: int,
                 emit: Optional[Callable[[str, Dict], None]] = None,
                 trace=None):
        self.server = server
        self.workers = workers
        self.queue_limit = queue_limit
        self.stages = stages
        self.sample_every_ns = max(1, sample_every_ns)
        self.emit = emit
        #: Optional :class:`repro.observability.spans.TraceContext`;
        #: None keeps the hot path at one predicate per request.
        self.trace = trace
        # index -> [conn_wait_ns, queue_enter_ns (-1 = never queued),
        #           queue_wait_ns]; only populated when tracing.
        self._span_meta: Dict[int, List[int]] = {}

        self.tenants = 1 + max(tenant for tenant, _ in service_ns)
        self.kinds = 1 + max(kind for _, kind in service_ns)
        #: kid -> (stage, tenant, kind)
        self.key_of = [(stage, tenant, kind) for stage in range(stages)
                       for tenant in range(self.tenants)
                       for kind in range(self.kinds)]
        keys = len(self.key_of)
        self._service = [service_ns[(tenant, kind)]
                         for _, tenant, kind in self.key_of]
        self._stage = [key[0] for key in self.key_of]

        self.free_workers = workers
        self.waiting: deque = deque()
        # conn -> None, or the deque of its requests waiting client-side,
        # for every connection with a request in service or queued.
        self.busy: Dict[int, Optional[deque]] = {}
        self.in_service: List[Tuple[int, int, Tuple]] = []  # heap
        self._seq = 0

        # Per kid: offered and shed tallies, and the latency histogram
        # (ns) as bucket table, sum, max and min; the completed tally is
        # the bucket total.
        self._offered = [0] * keys
        self._shed = [0] * keys
        self._buckets: List[Dict[int, int]] = [defaultdict(int)
                                               for _ in range(keys)]
        self._total = [0] * keys
        self._max = [0] * keys
        self._min = [math.inf] * keys
        self.stage_max_depth = [0] * stages
        self.depth_series: List[Tuple[int, int, int]] = []
        self._next_sample_ns = 0

    # ------------------------------------------------------------ events

    def offer(self, t_ns: int, stage: int, tenant: int, kind: int,
              conn: int, index: int = -1) -> None:
        """One arrival.  Must be called in non-decreasing ``t_ns``.
        *index* is the global schedule index — the span/exemplar
        identity; -1 (direct fabric use without a schedule) disables
        span capture for the request."""
        if not (0 <= stage < self.stages and 0 <= tenant < self.tenants
                and 0 <= kind < self.kinds):
            raise KeyError((stage, tenant, kind))
        kid = (stage * self.tenants + tenant) * self.kinds + kind
        self.run(((t_ns, kid, conn, index),))

    def drain(self) -> None:
        """Run every queued/in-service request to completion."""
        self.run((), drain=True)

    def run(self, arrivals: Iterable[Tuple[int, int, int, int]],
            drain: bool = False) -> None:
        """The event loop: merge *arrivals* — ``(t_ns, kid, conn,
        index)`` in non-decreasing ``t_ns`` — with the completion heap,
        then, if *drain*, run every queued/in-service request to
        completion.

        Completions due at or before an arrival go first (a worker
        freed at t serves an arrival at t).  After a completion the
        next waiting request starts first, then the finished
        connection's next pending request is admitted.  Queue depth is
        sampled before each event changes state.  The state lives in
        locals for the run and is stored back at the end.
        """
        workers = self.workers
        queue_limit, service = self.queue_limit, self._service
        stage_of, key_of = self._stage, self.key_of
        trace, span_meta = self.trace, self._span_meta
        tracing = trace is not None
        waiting, busy, heap = self.waiting, self.busy, self.in_service
        offered, shed = self._offered, self._shed
        buckets_of, totals = self._buckets, self._total
        maxima, minima = self._max, self._min
        stage_max_depth = self.stage_max_depth
        free, seq = self.free_workers, self._seq
        next_sample = self._next_sample_ns
        push, pop = heapq.heappush, heapq.heappop
        popleft, enqueue = waiting.popleft, waiting.append
        sub_bits = SUB_BUCKET_BITS
        sub, shift0 = 1 << sub_bits, sub_bits + 1

        for arrival in chain(arrivals, (_DRAIN,)) if drain else arrivals:
            t_ns = arrival[0]
            while heap and heap[0][0] <= t_ns:
                now, _, request = pop(heap)
                if next_sample <= now:
                    next_sample = self._sample(next_sample, now,
                                               len(waiting), workers - free)
                start, kid, conn, index = request
                free += 1
                # LogHistogram.record with bucket_index inline
                # (latencies are never < 0).
                value = now - start
                if value < sub:
                    bucket = value
                else:
                    shift = value.bit_length() - shift0
                    bucket = (shift << sub_bits) + (value >> shift)
                buckets = buckets_of[kid]
                buckets[bucket] += 1
                totals[kid] += value
                if value > maxima[kid]:
                    maxima[kid] = value
                if value < minima[kid]:
                    minima[kid] = value
                if tracing and index >= 0:
                    meta = span_meta.pop(index)
                    stage, tenant, kind = key_of[kid]
                    trace.record(
                        index=index, conn=conn, stage=stage, tenant=tenant,
                        kind=kind, arrival_ns=start, latency_ns=value,
                        conn_wait_ns=meta[0], queue_ns=meta[2])
                if waiting:
                    # Start the next waiting request (free > 0 here).
                    request = popleft()
                    if tracing and request[3] >= 0:
                        meta = span_meta[request[3]]
                        meta[2] = now - meta[1]
                    free -= 1
                    seq += 1
                    push(heap, (now + service[request[1]], seq, request))
                pending = busy[conn]
                if not pending:
                    del busy[conn]
                    continue
                # Admit the connection's next pending request; the
                # connection stays busy.  This completion left a free
                # worker or a free queue slot, so it is never shed.
                request = pending.popleft()
                index = request[3]
                if tracing and index >= 0:
                    meta = span_meta[index]
                    # The time between arrival and admission is spent
                    # waiting for this connection's previous request
                    # (keep-alive serialization).
                    meta[0] = now - request[0]
                if free > 0:
                    free -= 1
                    seq += 1
                    push(heap, (now + service[request[1]], seq, request))
                else:
                    enqueue(request)
                    if tracing and index >= 0:
                        meta[1] = now
                    depth = len(waiting)
                    stage = stage_of[request[1]]
                    if depth > stage_max_depth[stage]:
                        stage_max_depth[stage] = depth
            if arrival is _DRAIN:
                break

            if next_sample <= t_ns:
                next_sample = self._sample(next_sample, t_ns, len(waiting),
                                           workers - free)
            _, kid, conn, index = arrival
            offered[kid] += 1
            if tracing and index >= 0:
                span_meta[index] = [0, -1, 0]
            if conn in busy:
                pending = busy[conn]
                if pending is None:
                    busy[conn] = deque((arrival,))
                else:
                    pending.append(arrival)
            elif free > 0:
                busy[conn] = None
                free -= 1
                seq += 1
                push(heap, (t_ns + service[kid], seq, arrival))
            elif len(waiting) < queue_limit:
                busy[conn] = None
                enqueue(arrival)
                if tracing and index >= 0:
                    span_meta[index][1] = t_ns
                depth = len(waiting)
                stage = stage_of[kid]
                if depth > stage_max_depth[stage]:
                    stage_max_depth[stage] = depth
            else:
                shed[kid] += 1
                if tracing and index >= 0:
                    del span_meta[index]
                    stage, tenant, kind = key_of[kid]
                    trace.record(
                        index=index, conn=conn, stage=stage, tenant=tenant,
                        kind=kind, arrival_ns=t_ns, latency_ns=0,
                        conn_wait_ns=0, shed=True)

        self.free_workers, self._seq = free, seq
        self._next_sample_ns = next_sample

    def _sample(self, next_sample: int, now: int, depth: int,
                in_flight: int) -> int:
        """Record the queue-depth samples due at or before *now*, from
        *next_sample* on; return the next sample's time."""
        while next_sample <= now:
            self.depth_series.append((next_sample, depth, in_flight))
            if self.emit is not None:
                self.emit("queue_depth", {
                    "server": self.server, "t_ns": next_sample,
                    "depth": depth, "in_flight": in_flight})
            next_sample += self.sample_every_ns
        return next_sample

    # ------------------------------------------------------------- output

    @property
    def offered(self) -> Dict[Tuple[int, int, int], int]:
        return self._keyed(self._offered)

    @property
    def shed(self) -> Dict[Tuple[int, int, int], int]:
        return self._keyed(self._shed)

    @property
    def latency(self) -> Dict[Tuple[int, int, int], LogHistogram]:
        tables = {}
        for kid, buckets in enumerate(self._buckets):
            if buckets:
                hist = tables[self.key_of[kid]] = LogHistogram()
                hist.buckets = dict(buckets)
                hist.count = sum(buckets.values())
                hist.total = self._total[kid]
                hist.max = self._max[kid]
                hist.min = self._min[kid]
        return tables

    def _keyed(self, tally: List[int]) -> Dict[Tuple[int, int, int], int]:
        return {self.key_of[kid]: n for kid, n in enumerate(tally) if n}

    def result(self) -> Dict:
        """JSON-safe shard result for this server; merged by the engine
        with plain integer sums + histogram merges."""
        latency = self.latency
        completed = {key: hist.count for key, hist in latency.items()}
        return server_result_doc(self.server, self.offered, completed,
                                 self.shed, latency,
                                 self.stage_max_depth, self.depth_series)


def server_result_doc(server: int, offered, completed, shed, latency,
                      stage_max_depth, depth_series) -> Dict:
    """The per-server shard-result shape — shared by the model fabric
    and the full-serve fleet driver so the merge never cares which mode
    produced a doc.  Tally keys are ``"stage:tenant:kind"`` strings."""
    def keyed(table: Dict[Tuple[int, int, int], int]) -> Dict[str, int]:
        return {f"{s}:{t}:{k}": n for (s, t, k), n in sorted(table.items())}

    return {
        "server": server,
        "offered": keyed(offered),
        "completed": keyed(completed),
        "shed": keyed(shed),
        "latency": {f"{s}:{t}:{k}": hist.to_dict()
                    for (s, t, k), hist in sorted(latency.items())},
        "stage_max_depth": list(stage_max_depth),
        "depth_series": [list(sample) for sample in depth_series],
    }


def simulate_server(server: int, schedule, service_ns, workers: int,
                    queue_limit: int,
                    emit: Optional[Callable[[str, Dict], None]] = None,
                    trace=None) -> Dict:
    """Run one server's arrivals through the fabric and return its
    shard result.  *schedule* is an ArrivalSchedule; only requests whose
    connection shards to *server* are offered.  *trace* (a
    :class:`repro.observability.spans.TraceContext`) enables per-request
    span capture."""
    span = max(1, schedule.span_ns())
    sim = ServerSim(server=server, workers=workers, queue_limit=queue_limit,
                    service_ns=service_ns, stages=len(schedule.config.ramp),
                    sample_every_ns=span // DEPTH_SAMPLES or 1, emit=emit,
                    trace=trace)
    if (sim.tenants, sim.kinds) != (len(schedule.tenant_names),
                                    len(schedule.kind_names)):
        raise ValueError("service_ns does not cover the schedule's "
                         "(tenant, kind) pairs")
    sim.run(schedule.keyed_arrivals(server), drain=True)
    return sim.result()
