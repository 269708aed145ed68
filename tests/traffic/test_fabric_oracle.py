"""Oracle test for the fabric's single event loop.

:meth:`repro.traffic.loadbalancer.ServerSim.run` merges arrivals and
completions in one loop over locals.  The method-per-event simulator it
replaced is kept here as the reference; on seeded small configs both
must produce the same result docs, exemplar reservoirs, flight-ring
contents and ``queue_depth`` events.
"""

import heapq
import random
from collections import deque
from typing import Dict, List, Tuple

import pytest

from repro.observability.analyzers.latency import LogHistogram
from repro.observability.spans import TraceContext
from repro.traffic.config import TrafficConfig
from repro.traffic.loadbalancer import (DEPTH_SAMPLES, ServerSim,
                                        server_result_doc, simulate_server)
from repro.traffic.schedule import generate_schedule


class ReferenceServerSim:
    """The method-per-event fabric: one method call per event step.

    ``released`` / ``release_sheds`` count the pending requests admitted
    (and shed) when a connection is released, so the tests can show the
    pending-chain paths were exercised.
    """

    def __init__(self, server, workers, queue_limit, service_ns, stages,
                 sample_every_ns, emit=None, trace=None):
        self.server = server
        self.workers = workers
        self.queue_limit = queue_limit
        self.service_ns = service_ns
        self.stages = stages
        self.sample_every_ns = max(1, sample_every_ns)
        self.emit = emit
        self.trace = trace
        self._span_meta: Dict[int, List[int]] = {}
        self.free_workers = workers
        self.waiting: deque = deque()
        self.engaged: set = set()
        self.conn_pending: Dict[int, deque] = {}
        self.in_service: List[Tuple[int, int, Tuple]] = []
        self._seq = 0
        self.offered: Dict[Tuple[int, int, int], int] = {}
        self.completed: Dict[Tuple[int, int, int], int] = {}
        self.shed: Dict[Tuple[int, int, int], int] = {}
        self.latency: Dict[Tuple[int, int, int], LogHistogram] = {}
        self.stage_max_depth = [0] * stages
        self.depth_series: List[Tuple[int, int, int]] = []
        self._next_sample_ns = 0
        self.released = 0
        self.release_sheds = 0

    def offer(self, t_ns, stage, tenant, kind, conn, index=-1):
        self._advance(t_ns)
        key = (stage, tenant, kind)
        self.offered[key] = self.offered.get(key, 0) + 1
        request = (t_ns, stage, tenant, kind, conn, index)
        if self.trace is not None and index >= 0:
            self._span_meta[index] = [0, -1, 0]
        if conn in self.engaged:
            self.conn_pending.setdefault(conn, deque()).append(request)
            return
        self._admit(request, t_ns)

    def drain(self):
        while self.in_service:
            self._complete_next()

    def _advance(self, t_ns):
        while self.in_service and self.in_service[0][0] <= t_ns:
            self._complete_next()
        self._sample(t_ns)

    def _admit(self, request, now):
        conn = request[4]
        meta = None
        if self.trace is not None and request[5] >= 0:
            meta = self._span_meta[request[5]]
            meta[0] = now - request[0]
        if self.free_workers > 0:
            self.engaged.add(conn)
            self._start(request, now)
            return True
        if len(self.waiting) >= self.queue_limit:
            key = (request[1], request[2], request[3])
            self.shed[key] = self.shed.get(key, 0) + 1
            if meta is not None:
                self._span_meta.pop(request[5], None)
                self.trace.record(
                    index=request[5], conn=conn, stage=request[1],
                    tenant=request[2], kind=request[3],
                    arrival_ns=request[0], latency_ns=now - request[0],
                    conn_wait_ns=meta[0], shed=True)
            return False
        self.engaged.add(conn)
        self.waiting.append(request)
        if meta is not None:
            meta[1] = now
        depth = len(self.waiting)
        if depth > self.stage_max_depth[request[1]]:
            self.stage_max_depth[request[1]] = depth
        return True

    def _start(self, request, now):
        _t, stage, tenant, kind, _conn, index = request
        if self.trace is not None and index >= 0:
            meta = self._span_meta[index]
            if meta[1] >= 0:
                meta[2] = now - meta[1]
        self.free_workers -= 1
        service = self.service_ns[(tenant, kind)]
        self._seq += 1
        heapq.heappush(self.in_service, (now + service, self._seq, request))

    def _complete_next(self):
        done_t, _seq, request = heapq.heappop(self.in_service)
        t_ns, stage, tenant, kind, conn, index = request
        self._sample(done_t)
        self.free_workers += 1
        key = (stage, tenant, kind)
        self.completed[key] = self.completed.get(key, 0) + 1
        hist = self.latency.get(key)
        if hist is None:
            hist = self.latency[key] = LogHistogram()
        hist.record(done_t - t_ns)
        if self.trace is not None and index >= 0:
            meta = self._span_meta.pop(index)
            self.trace.record(
                index=index, conn=conn, stage=stage, tenant=tenant,
                kind=kind, arrival_ns=t_ns, latency_ns=done_t - t_ns,
                conn_wait_ns=meta[0], queue_ns=meta[2])
        if self.waiting and self.free_workers > 0:
            self._start(self.waiting.popleft(), done_t)
        self._release_conn(conn, done_t)

    def _release_conn(self, conn, now):
        self.engaged.discard(conn)
        pending = self.conn_pending.get(conn)
        while pending:
            request = pending.popleft()
            if not pending:
                del self.conn_pending[conn]
                pending = None
            self.released += 1
            if self._admit(request, now):
                return
            self.release_sheds += 1

    def _sample(self, t_ns):
        while self._next_sample_ns <= t_ns:
            sample = (self._next_sample_ns, len(self.waiting),
                      self.workers - self.free_workers)
            self.depth_series.append(sample)
            if self.emit is not None:
                self.emit("queue_depth", {
                    "server": self.server, "t_ns": sample[0],
                    "depth": sample[1], "in_flight": sample[2]})
            self._next_sample_ns += self.sample_every_ns

    def result(self):
        return server_result_doc(self.server, self.offered, self.completed,
                                 self.shed, self.latency,
                                 self.stage_max_depth, self.depth_series)


def reference_simulate(server, schedule, service_ns, workers, queue_limit,
                       emit=None, trace=None):
    """The old ``simulate_server``: a full scan of the schedule per
    server, one ``offer`` per request, then ``drain``."""
    sim = ReferenceServerSim(
        server=server, workers=workers, queue_limit=queue_limit,
        service_ns=service_ns, stages=len(schedule.config.ramp),
        sample_every_ns=max(1, schedule.span_ns()) // DEPTH_SAMPLES or 1,
        emit=emit, trace=trace)
    servers = schedule.config.servers
    for index in range(len(schedule)):
        conn = schedule.conn[index]
        if conn % servers != server:
            continue
        sim.offer(schedule.t_ns[index], schedule.stage_of(index),
                  schedule.tenant[index], schedule.kind[index], conn,
                  index=index)
    sim.drain()
    return sim


def varied_table(schedule, base_ns):
    """Distinct service times per (tenant, kind), so completions
    reorder against arrival order."""
    return {(t, k): base_ns * (1 + k) + 37 * t
            for t in range(len(schedule.tenant_names))
            for k in range(len(schedule.kind_names))}


def make_trace(schedule, server):
    return TraceContext(server=server, tenant_names=schedule.tenant_names,
                        kind_names=schedule.kind_names, per_group=3,
                        shed_keep=5, flight_capacity=32)


def run_both(schedule, table, workers, queue_limit, spans):
    """Run every server through both fabrics; return the reference sims
    (for the coverage counters) after asserting equal outputs."""
    refs = []
    for server in range(schedule.config.servers):
        events = {"new": [], "ref": []}
        traces = {side: make_trace(schedule, server) if spans else None
                  for side in events}

        def emitter(side):
            return lambda kind, payload: events[side].append((kind, payload))

        doc = simulate_server(server, schedule, table, workers, queue_limit,
                              emit=emitter("new"), trace=traces["new"])
        ref = reference_simulate(server, schedule, table, workers,
                                 queue_limit, emit=emitter("ref"),
                                 trace=traces["ref"])
        assert doc == ref.result()
        assert events["new"] == events["ref"]
        assert events["new"], "no queue_depth samples were emitted"
        if spans:
            assert traces["new"].reservoir.to_doc() == \
                traces["ref"].reservoir.to_doc()
            assert traces["new"].flight.snapshot() == \
                traces["ref"].flight.snapshot()
            assert traces["new"].flight.recorded == \
                traces["ref"].flight.recorded
        refs.append(ref)
    return refs


def config(**kwargs):
    defaults = dict(requests=900, rate=200_000, servers=2, connections=24,
                    ramp=(1, 3, 9), workers=2, queue_limit=8,
                    tenants=(("anchor", 3), ("batch", 1)),
                    mix=(("small", 5), ("medium", 2), ("large", 1),
                         ("batch:large", 1)))
    defaults.update(kwargs)
    return TrafficConfig(**defaults)


# (name, config overrides, base service ns, workers, queue limit)
CASES = [
    ("under-capacity", {}, 300, 2, 8),
    ("over-capacity", {}, 20_000, 2, 8),
    ("queue-limit-0", {}, 8_000, 2, 0),
    ("queue-limit-1", {}, 8_000, 2, 1),
    ("one-worker", {}, 6_000, 1, 4),
    ("few-connections", {"connections": 5, "servers": 1}, 9_000, 2, 2),
    ("few-connections-one-worker", {"connections": 3, "servers": 1},
     4_000, 1, 1),
    ("lognormal-bursts", {"arrival": "lognormal", "servers": 3,
                          "connections": 60}, 3_000, 2, 6),
    ("queue-limit-3-sheds", {"servers": 1}, 5_000, 2, 3),
]


@pytest.mark.parametrize("spans", [False, True], ids=["plain", "spans"])
@pytest.mark.parametrize("name,overrides,base_ns,workers,queue_limit",
                         CASES, ids=[case[0] for case in CASES])
def test_event_loop_matches_reference(name, overrides, base_ns, workers,
                                      queue_limit, spans):
    schedule = generate_schedule(config(**overrides), 11)
    refs = run_both(schedule, varied_table(schedule, base_ns), workers,
                    queue_limit, spans)
    shed = sum(sum(ref.shed.values()) for ref in refs)
    if name == "under-capacity":
        assert shed == 0
    else:
        assert shed > 0, "the case was meant to shed"
    if name.startswith("few-connections"):
        assert sum(ref.released for ref in refs) > 0, \
            "no pending request was admitted on a connection release"
    # A completion leaves a free worker or a free queue slot, so a
    # request admitted on a connection release is never shed; the new
    # loop relies on this.
    assert all(ref.release_sheds == 0 for ref in refs)


def test_two_tenants_three_kinds_each_keep_their_tallies():
    """Two tenants that both draw all three kinds: each of the six
    (tenant, kind) pairs reaches the fabric under its own key and comes
    back out under its own tuple."""
    schedule = generate_schedule(
        config(mix=(("small", 3), ("medium", 2), ("large", 1))), 11)
    assert len(schedule.tenant_names) == 2
    assert len(schedule.kind_names) == 3
    refs = run_both(schedule, varied_table(schedule, 2_000), 2, 8,
                    spans=True)
    pairs = {(tenant, kind) for ref in refs
             for _stage, tenant, kind in ref.offered}
    assert pairs == {(t, k) for t in range(2) for k in range(3)}


#: With 6 stages at n = 2·10^5, the generator draws these requests at
#: one stage's rate while ``stage_of`` counts them in the next.
BOUNDARY = (33_333, 66_666, 133_333, 166_666)


def test_stage_boundary_requests_tally_in_stage_of_stage():
    n, stages = 200_000, 6
    schedule = generate_schedule(
        config(requests=n, servers=4, connections=64,
               ramp=(1, 2, 4, 8, 16, 32)), 11)
    width = len(schedule.tenant_names) * len(schedule.kind_names)
    table = varied_table(schedule, 900)
    for index in BOUNDARY:
        stage = schedule.stage_of(index)
        assert index * stages // n != stage  # the generator's rule
        assert schedule.keys[index] // width == stage
        # One request on its own: its tallies carry stage_of's stage.
        sim = ServerSim(server=0, workers=2, queue_limit=8,
                        service_ns=table, stages=stages,
                        sample_every_ns=1000)
        sim.run(((schedule.t_ns[index], schedule.keys[index],
                  schedule.conn[index], index),), drain=True)
        key = (stage, schedule.tenant[index], schedule.kind[index])
        assert sim.offered == {key: 1}
        assert list(sim.latency) == [key]
    servers = schedule.config.servers
    for server in sorted({schedule.conn[index] % servers
                          for index in BOUNDARY}):
        doc = simulate_server(server, schedule, table, 2, 8)
        ref = reference_simulate(server, schedule, table, 2, 8)
        assert doc == ref.result()


def test_direct_offer_rejects_keys_outside_the_tables():
    sim = ServerSim(server=0, workers=1, queue_limit=1,
                    service_ns={(t, k): 100 for t in range(2)
                                for k in range(3)},
                    stages=2, sample_every_ns=100)
    for key in ((2, 0, 0), (0, 2, 0), (0, 0, 3), (-1, 0, 0)):
        with pytest.raises(KeyError):
            sim.offer(0, *key, conn=1)
    sim.offer(0, 1, 1, 2, conn=1)
    sim.drain()
    assert sim.result()["completed"] == {"1:1:2": 1}


def test_direct_offer_api_matches_reference():
    """``offer``/``drain`` driven by hand, with ``index=-1`` requests mixed
    into traced ones, same-time ties and repeated connections."""
    rng = random.Random(5)
    service = {(t, k): 200 + 150 * k + 40 * t
               for t in range(2) for k in range(3)}
    tenants, kinds = ("anchor", "batch"), ("small", "medium", "large")
    for workers, queue_limit in ((1, 0), (1, 1), (2, 2), (3, 16)):
        sims = []
        for cls in (ServerSim, ReferenceServerSim):
            events: list = []
            trace = TraceContext(server=0, tenant_names=tenants,
                                 kind_names=kinds, per_group=2, shed_keep=3,
                                 flight_capacity=16)
            sims.append((cls(server=0, workers=workers,
                             queue_limit=queue_limit, service_ns=service,
                             stages=2, sample_every_ns=250,
                             emit=lambda k, p, ev=events: ev.append((k, p)),
                             trace=trace), events, trace))
        now = 0
        for i in range(400):
            now += rng.choice((0, 0, 10, 90, 400))
            request = (now, i * 2 // 400, rng.randrange(2),
                       rng.randrange(3), rng.randrange(4),
                       i if rng.random() < 0.7 else -1)
            for sim, _, _ in sims:
                sim.offer(*request[:5], index=request[5])
        for sim, _, _ in sims:
            sim.drain()
        (new, new_events, new_trace), (ref, ref_events, ref_trace) = sims
        assert new.result() == ref.result()
        assert new_events == ref_events
        assert new_trace.reservoir.to_doc() == ref_trace.reservoir.to_doc()
        assert new_trace.flight.snapshot() == ref_trace.flight.snapshot()
        assert ref.released > 0
