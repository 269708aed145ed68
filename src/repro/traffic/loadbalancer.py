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
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.observability.analyzers.latency import LogHistogram, bucket_index

#: Queue-depth samples per server across the schedule span.
DEPTH_SAMPLES = 200


class ServerSim:
    """Discrete-event simulation of one fleet server.

    Feed arrivals in schedule order via :meth:`run` (or one at a time
    via :meth:`offer`, then :meth:`drain`); read the JSON-safe result
    from :meth:`result`.
    ``emit(kind, payload)`` (optional) mirrors queue-depth samples onto
    an event bus when the engine runs inside a kernel-attached context.
    """

    def __init__(self, server: int, workers: int, queue_limit: int,
                 service_ns: Dict[Tuple[int, int], int], stages: int,
                 sample_every_ns: int,
                 emit: Optional[Callable[[str, Dict], None]] = None,
                 trace=None):
        self.server = server
        self.workers = workers
        self.queue_limit = queue_limit
        self.service_ns = service_ns
        self.stages = stages
        self.sample_every_ns = max(1, sample_every_ns)
        self.emit = emit
        #: Optional :class:`repro.observability.spans.TraceContext`;
        #: None keeps the hot path at one predicate per request.
        self.trace = trace
        # index -> [conn_wait_ns, queue_enter_ns (-1 = never queued),
        #           queue_wait_ns]; only populated when tracing.
        self._span_meta: Dict[int, List[int]] = {}

        self.free_workers = workers
        self.waiting: deque = deque()
        self.engaged: set = set()
        self.conn_pending: Dict[int, deque] = {}
        self.in_service: List[Tuple[int, int, Tuple]] = []  # heap
        self._seq = 0

        # (stage, tenant, kind) -> tallies / latency histograms (ns);
        # the completed tally is each histogram's count.
        self.offered: Dict[Tuple[int, int, int], int] = {}
        self.shed: Dict[Tuple[int, int, int], int] = {}
        self.latency: Dict[Tuple[int, int, int], LogHistogram] = {}
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
        self.run(((t_ns, stage, tenant, kind, conn, index),))

    def drain(self) -> None:
        """Run every queued/in-service request to completion."""
        self.run((), drain=True)

    def run(self, arrivals: Iterable[Tuple[int, int, int, int, int, int]],
            drain: bool = False) -> None:
        """The event loop: merge *arrivals* — ``(t_ns, stage, tenant,
        kind, conn, index)`` in non-decreasing ``t_ns`` — with the
        completion heap, then, if *drain*, run every queued/in-service
        request to completion.

        Completions due at or before an arrival go first (a worker
        freed at t serves an arrival at t).  After a completion the
        next waiting request starts first, then the finished
        connection's next pending request is admitted.  Queue depth is
        sampled before each event changes state.  The state lives in
        locals for the run and is stored back at the end.
        """
        server, workers, emit = self.server, self.workers, self.emit
        queue_limit, service_ns = self.queue_limit, self.service_ns
        sample_every = self.sample_every_ns
        trace, span_meta = self.trace, self._span_meta
        tracing = trace is not None
        waiting, engaged = self.waiting, self.engaged
        conn_pending, heap = self.conn_pending, self.in_service
        offered = self.offered
        shed, latency = self.shed, self.latency
        stage_max_depth, depth_series = self.stage_max_depth, \
            self.depth_series
        free, seq = self.free_workers, self._seq
        next_sample = self._next_sample_ns
        push, pop = heapq.heappush, heapq.heappop
        popleft, enqueue = waiting.popleft, waiting.append

        arrivals = iter(arrivals)
        arrival = next(arrivals, None)
        while True:
            if heap and (heap[0][0] <= arrival[0] if arrival is not None
                         else drain):
                completing, now = True, heap[0][0]
            elif arrival is not None:
                completing, now = False, arrival[0]
            else:
                break
            while next_sample <= now:
                sample = (next_sample, len(waiting), workers - free)
                depth_series.append(sample)
                if emit is not None:
                    emit("queue_depth", {
                        "server": server, "t_ns": sample[0],
                        "depth": sample[1], "in_flight": sample[2]})
                next_sample += sample_every

            if completing:
                request = pop(heap)[2]
                t_ns, stage, tenant, kind, conn, index = request
                free += 1
                # LogHistogram.record, inline (latencies are never < 0).
                key = (stage, tenant, kind)
                hist = latency.get(key)
                if hist is None:
                    hist = latency[key] = LogHistogram()
                value = now - t_ns
                bucket = bucket_index(value)
                buckets = hist.buckets
                buckets[bucket] = buckets.get(bucket, 0) + 1
                hist.count += 1
                hist.total += value
                if value > hist.max:
                    hist.max = value
                if hist.min is None or value < hist.min:
                    hist.min = value
                if tracing and index >= 0:
                    meta = span_meta.pop(index)
                    trace.record(
                        index=index, conn=conn, stage=stage, tenant=tenant,
                        kind=kind, arrival_ns=t_ns, latency_ns=now - t_ns,
                        conn_wait_ns=meta[0], queue_ns=meta[2])
                if waiting:
                    # Start the next waiting request (free > 0 here).
                    request = popleft()
                    index = request[5]
                    if tracing and index >= 0:
                        meta = span_meta[index]
                        meta[2] = now - meta[1]
                    free -= 1
                    seq += 1
                    push(heap, (now + service_ns[(request[2], request[3])],
                                seq, request))
                engaged.discard(conn)
                pending = conn_pending.get(conn)
                if not pending:
                    continue
                # Admit the connection's next pending request.  This
                # completion left a free worker or a free queue slot,
                # so it is never shed.
                request = pending.popleft()
                if not pending:
                    del conn_pending[conn]
                t_ns, stage, tenant, kind, conn, index = request
            else:
                request = arrival
                arrival = next(arrivals, None)
                t_ns, stage, tenant, kind, conn, index = request
                key = (stage, tenant, kind)
                offered[key] = offered.get(key, 0) + 1
                if tracing and index >= 0:
                    span_meta[index] = [0, -1, 0]
                if conn in engaged:
                    conn_pending.setdefault(conn, deque()).append(request)
                    continue

            # Admit *request* at *now*.
            meta = None
            if tracing and index >= 0:
                meta = span_meta[index]
                # The time between arrival and admission is spent
                # waiting for this connection's previous request
                # (keep-alive serialization); 0 when it was free.
                meta[0] = now - t_ns
            if free > 0:
                engaged.add(conn)
                free -= 1
                seq += 1
                push(heap, (now + service_ns[(tenant, kind)], seq, request))
            elif len(waiting) < queue_limit:
                engaged.add(conn)
                enqueue(request)
                if meta is not None:
                    meta[1] = now
                depth = len(waiting)
                if depth > stage_max_depth[stage]:
                    stage_max_depth[stage] = depth
            else:
                key = (stage, tenant, kind)
                shed[key] = shed.get(key, 0) + 1
                if meta is not None:
                    del span_meta[index]
                    trace.record(
                        index=index, conn=conn, stage=stage, tenant=tenant,
                        kind=kind, arrival_ns=t_ns, latency_ns=now - t_ns,
                        conn_wait_ns=meta[0], shed=True)

        self.free_workers, self._seq = free, seq
        self._next_sample_ns = next_sample

    # ------------------------------------------------------------- output

    def result(self) -> Dict:
        """JSON-safe shard result for this server; merged by the engine
        with plain integer sums + histogram merges."""
        completed = {key: hist.count for key, hist in self.latency.items()}
        return server_result_doc(self.server, self.offered, completed,
                                 self.shed, self.latency,
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
    sim.run(schedule.arrivals(server), drain=True)
    return sim.result()
