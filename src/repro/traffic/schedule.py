"""Seeded open-loop arrival schedules — byte-identical by construction.

One ``random.Random(seed)`` stream drives every draw, in one fixed
order per request (gap, tenant, kind, connection), so the schedule is a
pure function of ``(config, seed)``: no wall clock, no float
accumulation across shards (each arrival time is the running integer
nanosecond sum), no dict iteration.  Every shard reads the same full
schedule and runs only its own servers' requests — strictly safer than
splitting the RNG — which is what makes ``--jobs 1/2/4`` byte-identical.
The parent builds the schedule once, before the pool forks, so forked
workers inherit it from the memo instead of re-drawing it.

The hot loop inlines the two ``random.Random`` methods it would call a
million times: each pick is ``randrange(n)``'s own rejection loop
(``getrandbits(n.bit_length())`` redrawn while ``>= n``) and each
Poisson gap is ``expovariate``'s body, so the stream and every byte
match the method calls (pinned against them by the tests).

Columns live in ``array('q')`` (8 bytes/field): a million-request
schedule is four 8 MB arrays, not a million Python objects.  The model
fabric's key column (:attr:`ArrivalSchedule.keys`, one
``(stage · T + tenant) · K + kind`` per request, two bytes each while
the keys fit) is derived on first use and kept with the memoised
schedule; the parent computes it before the pool forks.  Per-server
streams are zipped from the columns lazily, never materialised.

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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, getitem, mul
from typing import Dict, Iterator, Tuple

from repro.traffic.config import TrafficConfig

NS = 10**9

#: Pareto shape for the heavy-tail arrival option: alpha just above 1
#: keeps the mean finite while the variance diverges — the bursty
#: regime that stresses queue leveling.
PARETO_ALPHA = 1.5


def _cumulative(weights: Tuple[Tuple[str, int], ...]):
    """``(keys, cumulative_bounds, total)`` of a small weight table.

    A draw ``point = randrange(total)`` picks the first key whose
    cumulative bound exceeds it: ``bisect_right(bounds, point)``.
    """
    keys = [key for key, _ in weights]
    cumulative = []
    running = 0
    for _, weight in weights:
        running += weight
        cumulative.append(running)
    return keys, cumulative, running


@dataclass(frozen=True)
class ArrivalSchedule:
    """The generated schedule: parallel integer columns + name tables.

    ``t_ns[i]`` is request *i*'s absolute arrival time (virtual
    nanoseconds from test start); ``tenant[i]`` / ``kind[i]`` index
    ``tenant_names`` / ``kind_names``; ``conn[i]`` is the connection the
    request arrives on, and ``conn % servers`` its server — the sharding
    axis.  ``by_server[s]`` lists, in order, the indices of server *s*'s
    requests.  ``stage_of`` and the digest are derived, not stored.
    """

    config: TrafficConfig
    seed: int
    t_ns: array
    tenant: array
    kind: array
    conn: array
    tenant_names: Tuple[str, ...]
    kind_names: Tuple[str, ...]
    by_server: Tuple[array, ...]

    def __len__(self) -> int:
        return len(self.t_ns)

    def stage_of(self, index: int) -> int:
        # Inverse of stage_bounds: stage s covers [s*n//stages,
        # (s+1)*n//stages), so s is the largest value with
        # s*n//stages <= index.
        stages, n = len(self.config.ramp), len(self.t_ns)
        return ((index + 1) * stages - 1) // n

    @functools.cached_property
    def keys(self) -> array:
        """Each request's dense tally key, ``kid = (stage * T + tenant)
        * K + kind`` for ``T`` tenants and ``K`` kinds, with ``stage``
        :meth:`stage_of`'s (see :func:`request_keys`).  Built on first
        use and kept with the schedule, so the forked pool workers
        inherit it from the memoised schedule."""
        return request_keys(self)

    def keyed_arrivals(self, server: int) -> Iterator[Tuple[int, int,
                                                           int, int]]:
        """``(t_ns, kid, conn, index)`` for each request of *server*, in
        schedule order: the model fabric's input stream.  It is zipped
        lazily from the columns by C-level iterators; nothing per server
        is materialised (a tuple list per server would add its size
        again to the peak RSS).  ``operator.getitem`` is the cheaper
        call: a column's bound ``__getitem__`` packs an argument tuple
        per request."""
        index = self.by_server[server]
        return zip(*(map(getitem, repeat(column), index)
                     for column in (self.t_ns, self.keys, self.conn)),
                   index)

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

    def arrivals(self, server: int
                 ) -> Iterator[Tuple[int, int, int, int, int, int]]:
        """Yield ``(t_ns, stage, tenant, kind, conn, index)`` for each
        request of *server*, in schedule order; ``stage`` is
        :meth:`stage_of`'s."""
        t_col, tenant, kind, conn = self.t_ns, self.tenant, self.kind, \
            self.conn
        stages, n = len(self.config.ramp), len(t_col)
        for index in self.by_server[server]:
            yield (t_col[index], ((index + 1) * stages - 1) // n,
                   tenant[index], kind[index], conn[index], index)


def request_keys(schedule: ArrivalSchedule) -> array:
    """The key column of :attr:`ArrivalSchedule.keys`: one small integer
    per request, ``(stage * T + tenant) * K + kind``, so the fabric's
    tallies, service times and histograms are lists indexed by it.

    ``stage`` is the tally's rule (:meth:`ArrivalSchedule.stage_of`,
    i.e. :meth:`~ArrivalSchedule.stage_bounds`).  The generator draws
    request r at the rate of stage r*stages//n instead; the two rules
    disagree on a few requests (ROADMAP.md, "stage-boundary mismatch").
    """
    tenants, kinds = len(schedule.tenant_names), len(schedule.kind_names)
    width = tenants * kinds
    count = width * len(schedule.config.ramp)
    # Two bytes a request while the keys fit (about 0.4 MB at 2·10^5).
    keys = array("H" if count <= 1 << 16 else "q")
    # tenant * K + kind, offset by each stage's first key.
    local = map(add, map(mul, schedule.tenant, repeat(kinds)), schedule.kind)
    for stage, (first, end) in enumerate(schedule.stage_bounds()):
        keys.extend(map(add, repeat(stage * width, end - first),
                        islice(local, end - first)))
    return keys


def _gap_drawer(arrival: str, rng: random.Random, rate: int):
    """Return ``(draw, scale)`` for one stage's *rate* of a lognormal or
    Pareto process: each gap is ``int(scale * draw())`` nanoseconds.
    (Poisson gaps are drawn inline by :func:`generate_schedule`.)

    The float draw is converted to integer nanoseconds immediately
    (round-half-even via int(x + 0.5) is avoided — plain truncation of
    a positive float is platform-stable), so no float state survives
    between requests.  ``scale`` is 1.0 unless the process needs one;
    multiplying by 1.0 is exact.
    """
    if arrival == "lognormal":
        # sigma=1 burstiness; mu set so the mean is exactly 1/rate:
        # mean of lognormal(mu, sigma) = exp(mu + sigma^2/2).
        sigma = 1.0
        mu = math.log(NS / rate) - sigma * sigma / 2.0
        return functools.partial(rng.lognormvariate, mu, sigma), 1.0
    # pareto: scale xm so the mean alpha*xm/(alpha-1) is 1/rate.
    xm = (PARETO_ALPHA - 1.0) / PARETO_ALPHA * (NS / rate)
    return functools.partial(rng.paretovariate, PARETO_ALPHA), xm


@functools.lru_cache(maxsize=4)
def generate_schedule(config: TrafficConfig, seed: int) -> ArrivalSchedule:
    """Generate the full arrival schedule for ``(config, seed)``.

    ``config.rate`` must be resolved (non-zero).  Draw order per request
    is fixed — gap, tenant, kind, connection — and every consumer draw
    happens even when a value is forced (single tenant still burns a
    draw), so adding consumers later can't silently reshuffle the
    stream for old configs.  Memoised per process, so the result is
    shared: no consumer may mutate its columns.
    """
    if config.rate <= 0:
        raise ValueError("generate_schedule needs a resolved rate")
    rng = random.Random(seed)
    getrandbits, uniform, log = rng.getrandbits, rng.random, math.log
    tenant_names, tenant_bounds, tenant_total = _cumulative(config.tenants)
    tenant_bits = tenant_total.bit_length()
    kind_tables = [_cumulative(config.mix_for(name))
                   for name in tenant_names]
    kind_names = tuple(sorted({kind for keys, _, _ in kind_tables
                               for kind in keys}))
    kind_index = {kind: i for i, kind in enumerate(kind_names)}
    # Per tenant: (bounds, total, total's bit length, tenant-local ->
    # global kind index).
    kind_tables = [(bounds, total, total.bit_length(),
                    [kind_index[key] for key in keys])
                   for keys, bounds, total in kind_tables]

    n = config.requests
    stages = len(config.ramp)
    connections, servers = config.connections, config.servers
    conn_bits = connections.bit_length()
    poisson = config.arrival == "poisson"
    t_col, tenant_col = array("q"), array("q")
    kind_col, conn_col = array("q"), array("q")
    by_server = tuple(array("q") for _ in range(servers))
    t_append, tenant_append = t_col.append, tenant_col.append
    kind_append, conn_append = kind_col.append, conn_col.append
    server_append = [column.append for column in by_server]
    now = 0
    for stage, multiplier in enumerate(config.ramp):
        # Request r is drawn at the rate of stage r*stages//n, so stage
        # s starts at ceil(s*n/stages).  The tally (stage_of, and the
        # fabric's request_keys) counts from floor(s*n/stages) instead
        # (ROADMAP.md, "stage-boundary mismatch"); this rule is kept so
        # the draw stream is unchanged.
        first = -(-stage * n // stages)
        end = -(-(stage + 1) * n // stages)
        rate = config.rate * multiplier
        if poisson:
            lambd = rate / NS
        else:
            draw, scale = _gap_drawer(config.arrival, rng, rate)
        for index in range(first, end):
            if poisson:
                # expovariate(lambd), inlined.
                now += int(-log(1.0 - uniform()) / lambd)
            else:
                now += int(scale * draw())
            # Each pick is randrange(total), inlined: a single-entry
            # table still burns its draw.
            point = getrandbits(tenant_bits)
            while point >= tenant_total:
                point = getrandbits(tenant_bits)
            tenant = bisect_right(tenant_bounds, point)
            bounds, total, bits, kinds = kind_tables[tenant]
            point = getrandbits(bits)
            while point >= total:
                point = getrandbits(bits)
            kind = kinds[bisect_right(bounds, point)]
            conn = getrandbits(conn_bits)
            while conn >= connections:
                conn = getrandbits(conn_bits)
            t_append(now)
            tenant_append(tenant)
            kind_append(kind)
            conn_append(conn)
            server_append[conn % servers](index)
    return ArrivalSchedule(config=config, seed=seed, t_ns=t_col,
                           tenant=tenant_col, kind=kind_col, conn=conn_col,
                           tenant_names=tuple(tenant_names),
                           kind_names=kind_names, by_server=by_server)


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
