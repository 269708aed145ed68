"""Arrival-schedule determinism: same seed, byte-identical columns."""

import hashlib
import math
import random
from array import array

import pytest

from repro.traffic.config import TrafficConfig
from repro.traffic.schedule import (NS, PARETO_ALPHA, generate_schedule,
                                    schedule_summary)


def small(**kwargs):
    defaults = dict(requests=2000, rate=100_000, servers=4,
                    connections=64, ramp=(1, 2, 4))
    defaults.update(kwargs)
    return TrafficConfig(**defaults)


def test_same_seed_same_digest():
    a = generate_schedule(small(), 42)
    b = generate_schedule(small(), 42)
    assert a.digest() == b.digest()
    assert a.t_ns == b.t_ns and a.conn == b.conn


def test_different_seed_different_digest():
    assert generate_schedule(small(), 1).digest() != \
        generate_schedule(small(), 2).digest()


def test_unresolved_rate_rejected():
    with pytest.raises(ValueError, match="resolved rate"):
        generate_schedule(TrafficConfig(), 1)


def test_arrivals_monotonic_and_connections_in_range():
    schedule = generate_schedule(small(), 7)
    last = 0
    for i in range(len(schedule)):
        assert schedule.t_ns[i] >= last
        last = schedule.t_ns[i]
        assert 0 <= schedule.conn[i] < 64


@pytest.mark.parametrize("arrival", ["poisson", "lognormal", "pareto"])
def test_every_arrival_process_generates(arrival):
    schedule = generate_schedule(small(arrival=arrival), 3)
    assert len(schedule) == 2000
    assert schedule.span_ns() > 0


def test_stage_bounds_partition_requests():
    schedule = generate_schedule(small(), 5)
    bounds = schedule.stage_bounds()
    assert bounds[0][0] == 0 and bounds[-1][1] == len(schedule)
    for (_, end), (start, _) in zip(bounds, bounds[1:]):
        assert end == start
    for stage, (start, end) in enumerate(bounds):
        assert schedule.stage_of(start) == stage
        assert schedule.stage_of(end - 1) == stage


def test_ramp_speeds_up_arrivals():
    """Later (higher-multiplier) stages pack the same requests into less
    wall time: mean gap shrinks roughly with the multiplier."""
    schedule = generate_schedule(small(ramp=(1, 8)), 11)
    (s0, e0), (s1, e1) = schedule.stage_bounds()
    span0 = schedule.t_ns[e0 - 1] - schedule.t_ns[s0]
    span1 = schedule.t_ns[e1 - 1] - schedule.t_ns[s1]
    assert span1 * 3 < span0


def test_server_sharding_covers_all_requests():
    schedule = generate_schedule(small(), 9)
    total = sum(1 for s in range(4)
                for _ in schedule.arrivals(s))
    assert total == len(schedule)


def test_tenant_weights_respected():
    config = small(requests=4000, tenants=(("heavy", 9), ("light", 1)))
    schedule = generate_schedule(config, 13)
    heavy = schedule.tenant_names.index("heavy")
    count = sum(1 for i in range(len(schedule))
                if schedule.tenant[i] == heavy)
    assert 0.8 < count / len(schedule) < 0.98


def test_summary_echo():
    schedule = generate_schedule(small(), 21)
    doc = schedule_summary(schedule)
    assert doc["requests"] == 2000
    assert doc["digest"] == schedule.digest()
    assert [row["rate"] for row in doc["stages"]] == \
        [100_000, 200_000, 400_000]


# ----------------------------------------------------- generator oracle


def reference_schedule(config, seed):
    """The per-request generator loop the stage-wise one replaced: a
    closure picker scanning cumulative weights, one gap closure per
    request.  Returns ``(digest, tenant_names, kind_names)``."""
    def weighted_picker(weights):
        keys = [key for key, _ in weights]
        cumulative, running = [], 0
        for _, weight in weights:
            running += weight
            cumulative.append(running)

        def pick(rng):
            point = rng.randrange(running)
            for index, bound in enumerate(cumulative):
                if point < bound:
                    return index
            return len(keys) - 1

        return keys, pick

    def draw_gap(rng, rate):
        if config.arrival == "poisson":
            return int(rng.expovariate(rate / NS))
        if config.arrival == "lognormal":
            mu = math.log(NS / rate) - 0.5
            return int(rng.lognormvariate(mu, 1.0))
        xm = (PARETO_ALPHA - 1.0) / PARETO_ALPHA * (NS / rate)
        return int(xm * rng.paretovariate(PARETO_ALPHA))

    rng = random.Random(seed)
    tenant_names, pick_tenant = weighted_picker(config.tenants)
    kind_tables = {name: weighted_picker(config.mix_for(name))
                   for name, _ in config.tenants}
    kind_names = tuple(sorted({kind for keys, _ in kind_tables.values()
                               for kind in keys}))
    kind_index = {kind: i for i, kind in enumerate(kind_names)}
    n, stages = config.requests, len(config.ramp)
    columns = [array("q") for _ in range(4)]
    now = 0
    for index in range(n):
        now += draw_gap(rng, config.rate * config.ramp[index * stages // n])
        tenant = pick_tenant(rng)
        keys, pick_kind = kind_tables[tenant_names[tenant]]
        kind = kind_index[keys[pick_kind(rng)]]
        conn = rng.randrange(config.connections)
        for column, value in zip(columns, (now, tenant, kind, conn)):
            column.append(value)
    h = hashlib.sha256()
    for column in columns:
        h.update(column.tobytes())
    return h.hexdigest(), tuple(tenant_names), kind_names


TWO_TENANTS = dict(tenants=(("anchor", 5), ("batch", 2)),
                   mix=(("small", 6), ("medium", 3), ("large", 1),
                        ("batch:large", 3), ("batch:medium", 1)))


@pytest.mark.parametrize("arrival", ["poisson", "lognormal", "pareto"])
@pytest.mark.parametrize("overrides", [
    {},
    TWO_TENANTS,
    dict(requests=1001, ramp=(1, 2, 4, 8, 16, 32)),  # n % stages != 0
    dict(requests=4, ramp=(1, 2, 3, 5, 8, 13)),      # empty stages
    dict(requests=1, servers=3, **TWO_TENANTS),
    # Pick bounds at a power of two or 1: the inlined rejection loop
    # draws n.bit_length() bits, exactly as randrange(n) does.
    dict(tenants=(("anchor", 5), ("batch", 3)),
         mix=(("small", 4), ("medium", 2), ("large", 2))),
    dict(tenants=(("anchor", 9), ("batch", 4), ("probe", 3))),
    dict(tenants=(("solo", 1),), mix=(("small", 1),)),
    dict(connections=1, servers=1),
    dict(connections=2, servers=2),
    dict(connections=2048),
], ids=["default", "two-tenants", "uneven-stages", "n-below-stages",
        "single-request", "weights-sum-8", "weights-sum-16",
        "single-tenant-weight-1", "one-connection", "two-connections",
        "2048-connections"])
def test_generator_matches_reference(arrival, overrides):
    config = small(arrival=arrival, **overrides)
    schedule = generate_schedule(config, 29)
    assert (schedule.digest(), schedule.tenant_names,
            schedule.kind_names) == reference_schedule(config, 29)


@pytest.mark.parametrize("overrides", [{}, dict(requests=5, servers=7)])
def test_server_columns_partition_requests(overrides):
    """``by_server`` splits ``range(n)`` by ``conn % servers``, each
    column in schedule order, and ``arrivals`` walks exactly it."""
    schedule = generate_schedule(small(**overrides), 31)
    servers = schedule.config.servers
    assert len(schedule.by_server) == servers
    for server, column in enumerate(schedule.by_server):
        assert list(column) == [i for i in range(len(schedule))
                                if schedule.conn[i] % servers == server]
        assert [a[5] for a in schedule.arrivals(server)] == list(column)
        for t_ns, stage, tenant, kind, conn, index in \
                schedule.arrivals(server):
            assert (t_ns, stage, tenant, kind, conn) == (
                schedule.t_ns[index], schedule.stage_of(index),
                schedule.tenant[index], schedule.kind[index],
                schedule.conn[index])
