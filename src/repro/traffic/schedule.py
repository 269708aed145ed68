"""Seeded open-loop arrival schedules — byte-identical by construction.

One ``random.Random(seed)`` stream drives every draw, in one fixed
order per request (gap, tenant, kind, connection), so the schedule is a
pure function of ``(config, seed)``: no wall clock, no float
accumulation across shards (each arrival time is the running integer
nanosecond sum), no dict iteration.  Shards *re-generate* the same full
schedule and filter it — cheaper and strictly safer than splitting the
RNG — which is what makes ``--jobs 1/2/4`` byte-identical.

Columns live in ``array('q')`` (8 bytes/field): a million-request
schedule is four 8 MB arrays, not a million Python objects.

The rate ramp is request-count-staged: stage ``i = r * len(ramp) // n``
for request ``r`` of ``n``, so every stage holds the same number of
requests and per-stage percentiles are equally grounded.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.traffic.config import TrafficConfig

NS = 10**9

#: Pareto shape for the heavy-tail arrival option: alpha just above 1
#: keeps the mean finite while the variance diverges — the bursty
#: regime that stresses queue leveling.
PARETO_ALPHA = 1.5


def _weighted_picker(weights: Tuple[Tuple[str, int], ...]):
    """O(1)-ish cumulative-weight picker over a small weight table."""
    keys = [key for key, _ in weights]
    cumulative = []
    running = 0
    for _, weight in weights:
        running += weight
        cumulative.append(running)
    total = running

    def pick(rng: random.Random) -> int:
        point = rng.randrange(total)
        for index, bound in enumerate(cumulative):
            if point < bound:
                return index
        return len(keys) - 1  # unreachable

    return keys, pick


@dataclass(frozen=True)
class ArrivalSchedule:
    """The generated schedule: parallel integer columns + name tables.

    ``t_ns[i]`` is request *i*'s absolute arrival time (virtual
    nanoseconds from test start); ``tenant[i]`` / ``kind[i]`` index
    ``tenant_names`` / ``kind_names``; ``conn[i]`` is the connection the
    request arrives on, and ``conn % servers`` its server — the sharding
    axis.  ``stage_of`` and the digest are derived, not stored.
    """

    config: TrafficConfig
    seed: int
    t_ns: array
    tenant: array
    kind: array
    conn: array
    tenant_names: Tuple[str, ...]
    kind_names: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.t_ns)

    def stage_of(self, index: int) -> int:
        # Inverse of stage_bounds: stage s covers [s*n//stages,
        # (s+1)*n//stages), so s is the largest value with
        # s*n//stages <= index.
        stages, n = len(self.config.ramp), len(self.t_ns)
        return ((index + 1) * stages - 1) // n

    def server_of(self, index: int) -> int:
        return self.conn[index] % self.config.servers

    def digest(self) -> str:
        """SHA-256 over the raw column bytes: the byte-identity witness
        quoted in METRICS_slo.json and asserted by the property tests."""
        h = hashlib.sha256()
        for column in (self.t_ns, self.tenant, self.kind, self.conn):
            h.update(column.tobytes())
        return h.hexdigest()

    def span_ns(self) -> int:
        return self.t_ns[-1] if len(self.t_ns) else 0

    def stage_bounds(self) -> Tuple[Tuple[int, int], ...]:
        """Per-stage ``(first_index, end_index)`` half-open ranges."""
        n, stages = len(self.t_ns), len(self.config.ramp)
        return tuple((s * n // stages, (s + 1) * n // stages)
                     for s in range(stages))

    def iter_requests(self, server: int = -1
                      ) -> Iterator[Tuple[int, int, int, int, int]]:
        """Yield ``(index, t_ns, tenant, kind, conn)``, optionally only
        for requests whose connection shards to *server*."""
        servers = self.config.servers
        for index in range(len(self.t_ns)):
            if server >= 0 and self.conn[index] % servers != server:
                continue
            yield (index, self.t_ns[index], self.tenant[index],
                   self.kind[index], self.conn[index])


def _gap_drawer(arrival: str):
    """Return draw(rng, rate) -> gap_ns for the configured process.

    Each drawer converts a float draw to integer nanoseconds
    immediately (round-half-even via int(x + 0.5) is avoided — plain
    truncation of a positive float is platform-stable), so no float
    state survives between requests.
    """
    if arrival == "poisson":
        def draw(rng: random.Random, rate: int) -> int:
            return int(rng.expovariate(rate / NS))
    elif arrival == "lognormal":
        # sigma=1 burstiness; mu set so the mean is exactly 1/rate:
        # mean of lognormal(mu, sigma) = exp(mu + sigma^2/2).
        sigma = 1.0

        def draw(rng: random.Random, rate: int) -> int:
            mu = math.log(NS / rate) - sigma * sigma / 2.0
            return int(rng.lognormvariate(mu, sigma))
    else:  # pareto
        def draw(rng: random.Random, rate: int) -> int:
            # Scale xm so the mean alpha*xm/(alpha-1) is 1/rate.
            xm = (PARETO_ALPHA - 1.0) / PARETO_ALPHA * (NS / rate)
            return int(xm * rng.paretovariate(PARETO_ALPHA))
    return draw


@functools.lru_cache(maxsize=4)
def generate_schedule(config: TrafficConfig, seed: int) -> ArrivalSchedule:
    """Generate the full arrival schedule for ``(config, seed)``.

    ``config.rate`` must be resolved (non-zero).  Draw order per request
    is fixed — gap, tenant, kind, connection — and every consumer draw
    happens even when a value is forced (single tenant still burns a
    draw via the picker), so adding consumers later can't silently
    reshuffle the stream for old configs.  Memoised per process, so
    the result is shared: no consumer may mutate its columns.
    """
    if config.rate <= 0:
        raise ValueError("generate_schedule needs a resolved rate")
    rng = random.Random(seed)
    draw_gap = _gap_drawer(config.arrival)
    tenant_names, pick_tenant = _weighted_picker(config.tenants)
    kind_tables = {}
    for name, _ in config.tenants:
        kind_tables[name] = _weighted_picker(config.mix_for(name))
    kind_names = tuple(sorted({kind for keys, _ in kind_tables.values()
                               for kind in keys}))
    kind_index = {kind: i for i, kind in enumerate(kind_names)}

    n = config.requests
    stages = len(config.ramp)
    t_col, tenant_col = array("q"), array("q")
    kind_col, conn_col = array("q"), array("q")
    now = 0
    for index in range(n):
        stage_rate = config.rate * config.ramp[index * stages // n]
        now += draw_gap(rng, stage_rate)
        tenant = pick_tenant(rng)
        keys, pick_kind = kind_tables[tenant_names[tenant]]
        kind = kind_index[keys[pick_kind(rng)]]
        conn = rng.randrange(config.connections)
        t_col.append(now)
        tenant_col.append(tenant)
        kind_col.append(kind)
        conn_col.append(conn)
    return ArrivalSchedule(config=config, seed=seed, t_ns=t_col,
                           tenant=tenant_col, kind=kind_col, conn=conn_col,
                           tenant_names=tuple(tenant_names),
                           kind_names=kind_names)


def schedule_summary(schedule: ArrivalSchedule) -> Dict:
    """Small JSON echo for reports: count, span, digest, stage bounds."""
    return {
        "requests": len(schedule),
        "span_ns": schedule.span_ns(),
        "digest": schedule.digest(),
        "stages": [
            {"stage": s, "rate": schedule.config.rate * m,
             "first": bounds[0], "end": bounds[1]}
            for s, (m, bounds) in enumerate(
                zip(schedule.config.ramp, schedule.stage_bounds()))
        ],
    }
