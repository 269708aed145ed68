"""The queueing fabric and the shard merge — no kernels involved.

Service times are injected directly, so these tests pin the fabric's
semantics (serialization, leveling, shedding) and the merge's exactness
without paying for calibration.
"""

from repro.observability.analyzers.latency import LogHistogram
from repro.traffic.config import TrafficConfig
from repro.traffic.engine import merge_mechanism, _find_knee, shard_servers
from repro.traffic.loadbalancer import ServerSim, simulate_server
from repro.traffic.schedule import generate_schedule


def flat_table(schedule, service_ns):
    return {(t, k): service_ns
            for t in range(len(schedule.tenant_names))
            for k in range(len(schedule.kind_names))}


def small(**kwargs):
    defaults = dict(requests=1500, rate=200_000, servers=2,
                    connections=32, ramp=(1, 4), workers=2, queue_limit=8)
    defaults.update(kwargs)
    return TrafficConfig(**defaults)


def test_conservation_offered_equals_completed_plus_shed():
    config = small()
    schedule = generate_schedule(config, 3)
    table = flat_table(schedule, 20_000)  # deliberately over capacity
    for server in range(config.servers):
        doc = simulate_server(server, schedule, table, config.workers,
                              config.queue_limit)
        offered = sum(doc["offered"].values())
        assert offered == sum(doc["completed"].values()) \
            + sum(doc["shed"].values())
        assert offered == sum(1 for _ in schedule.arrivals(server))


def test_underloaded_server_sheds_nothing():
    config = small()
    schedule = generate_schedule(config, 5)
    doc = simulate_server(0, schedule, flat_table(schedule, 100),
                          config.workers, config.queue_limit)
    assert sum(doc["shed"].values()) == 0


def test_overload_sheds_and_saturates_depth():
    config = small(queue_limit=4)
    schedule = generate_schedule(config, 5)
    doc = simulate_server(0, schedule, flat_table(schedule, 200_000),
                          config.workers, config.queue_limit)
    assert sum(doc["shed"].values()) > 0
    assert max(doc["stage_max_depth"]) == 4  # pinned at the limit


def test_connection_serialization_is_measured_latency():
    """Two same-time arrivals on ONE connection must serialize even with
    idle workers; on two connections they run concurrently."""
    sim = ServerSim(server=0, workers=4, queue_limit=16,
                    service_ns={(0, 0): 1000}, stages=1,
                    sample_every_ns=10_000)
    sim.offer(0, 0, 0, 0, conn=1)
    sim.offer(0, 0, 0, 0, conn=1)  # same conn: waits for first
    sim.offer(0, 0, 0, 0, conn=2)  # different conn: immediate
    sim.drain()
    hist = sim.latency[(0, 0, 0)]
    assert hist.count == 3
    assert hist.max >= 2000  # the serialized request waited a service
    assert hist.min == 1000  # the concurrent ones did not


def test_merge_is_shard_count_invariant():
    """Dealing the same server docs across 1, 2, or 3 shard docs yields
    byte-identical merged sections — the --jobs guarantee's core."""
    config = small(servers=3, connections=33)
    schedule = generate_schedule(config, 17)
    table = flat_table(schedule, 5_000)
    docs = [simulate_server(s, schedule, table, config.workers,
                            config.queue_limit)
            for s in range(3)]
    calibration = {"kinds": {}}

    def shard_doc(servers):
        return {"schedule_digest": schedule.digest(),
                "calibration": calibration,
                "servers": [docs[s] for s in servers]}

    import json
    merged = []
    for dealing in ([[0, 1, 2]], [[0, 2], [1]], [[2], [0], [1]]):
        section = merge_mechanism([shard_doc(d) for d in dealing],
                                  config, schedule)
        merged.append(json.dumps(section, sort_keys=True))
    assert merged[0] == merged[1] == merged[2]


def test_merge_rejects_mismatched_schedules():
    import pytest

    config = small()
    a = generate_schedule(config, 1)
    b = generate_schedule(config, 2)
    table = flat_table(a, 1000)
    doc_a = {"schedule_digest": a.digest(), "calibration": {},
             "servers": [simulate_server(0, a, table, 2, 8)]}
    doc_b = {"schedule_digest": b.digest(), "calibration": {},
             "servers": [simulate_server(1, b, table, 2, 8)]}
    with pytest.raises(ValueError, match="disagree"):
        merge_mechanism([doc_a, doc_b], config, a)


def test_shard_servers_partition():
    dealt = [shard_servers(5, shard, 2) for shard in range(2)]
    assert dealt == [[0, 2, 4], [1, 3]]
    assert sorted(sum(dealt, [])) == list(range(5))


def _stage_row(stage, rate, shed=0, p99_ns=0):
    return {"stage": stage, "rate": rate, "offered": 100,
            "completed": 100 - shed, "shed": shed,
            "throughput_rps": rate, "p50_ns": 0, "p99_ns": p99_ns,
            "p999_ns": p99_ns, "pmax_ns": p99_ns, "max_depth": 0}


def test_knee_first_slo_violation_wins():
    config = small(slo_p99_ms=1)
    stages = [_stage_row(0, 100, p99_ns=500_000),
              _stage_row(1, 200, p99_ns=2_000_000),
              _stage_row(2, 400, shed=5, p99_ns=9_000_000)]
    knee = _find_knee(config, stages)
    assert knee["stage"] == 1 and knee["reason"] == "p99-slo"


def test_knee_shed_reason():
    config = small(slo_p99_ms=1000)
    stages = [_stage_row(0, 100), _stage_row(1, 200, shed=1)]
    knee = _find_knee(config, stages)
    assert knee["stage"] == 1 and knee["reason"] == "shed"


def test_knee_absent_when_ramp_never_saturates():
    config = small(slo_p99_ms=1000)
    knee = _find_knee(config, [_stage_row(0, 100), _stage_row(1, 200)])
    assert knee["stage"] is None and knee["reason"] is None


def test_histogram_sharded_merge_is_exact():
    """Satellite (c): count/sum + sparse buckets through to_dict →
    from_dict → merge reproduce the unsharded histogram exactly."""
    values = [3, 17, 171, 4096, 99_999, 1_000_000, 7, 17]
    whole = LogHistogram()
    for v in values:
        whole.record(v)
    shard_a, shard_b = LogHistogram(), LogHistogram()
    for i, v in enumerate(values):
        (shard_a if i % 2 else shard_b).record(v)
    merged = LogHistogram.from_dict(shard_a.to_dict())
    merged.merge(LogHistogram.from_dict(shard_b.to_dict()))
    assert merged.to_dict() == whole.to_dict()
    assert merged.count == whole.count and merged.total == whole.total
