"""Request-scoped span trees: per-request critical-path attribution.

``METRICS_slo.json`` aggregates latency into histograms; a p99.9
outlier cannot be explained from a histogram.  This module supplies the
request-scoped layer underneath: every request the traffic engine
serves — in the model fabric *and* on real kernels — can carry a
**span tree**: the fixed stage decomposition

    arrival → admission-wait → conn-wait → queue-wait → service

with the invariant that the stage durations sum *exactly* to the
request's recorded latency (the zero-residual contract, mirroring the
PR 4 cycle-decomposition invariant).  The closing stage (``service``)
is always computed as the remainder, so cycle→ns rounding can never
leave a residual.

Retention is **rank-based, not wall-clock**: an
:class:`ExemplarReservoir` keeps the slowest-N span trees per
``(stage, tenant, kind)`` group plus the earliest-K shed/stalled
requests per group (K bounds memory at 10^6-request scale; the exact
shed *count* is always carried alongside).  Because a group's global
top-N is contained in the union of per-server top-Ns (each global
winner is also a winner on its own server), merging per-server
reservoirs and re-trimming reproduces the unsharded reservoir exactly —
the property that keeps exemplar IDs in ``METRICS_slo.json``
byte-identical across ``--jobs`` shard counts.

The :class:`TraceContext` is the trace-context field threaded through
``TrafficSource`` / ``RoundAdmission`` / ``ServerSim``: it owns the
reservoir, a :class:`SpanFlightRecorder` ring (dumped on stall-shed or
shadow divergence), and — when a kernel bus is attached — emits one
:class:`~repro.observability.events.RequestSpan` event per request
behind the established null-sink guard.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Version of the exemplar/span document schema (bump on shape changes).
SPAN_SCHEMA_VERSION = "spans-v1"

#: The fixed stage decomposition, in causal order.  Both serve modes
#: emit all four stages so span trees are structurally identical:
#: the model fabric has no admission seam (admission-wait is 0) and the
#: full-serve kernel's internal queueing is not separately observable
#: (queue-wait is 0; that time lands in service).
STAGE_NAMES = ("admission-wait", "conn-wait", "queue-wait", "service")

#: Flight-recorder dumps default under the benchmarks output tree;
#: REPRO_FLIGHT_DIR overrides (kept out of TrafficConfig so artifact
#: bytes and cache keys never depend on it).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"
DEFAULT_FLIGHT_DIR = os.path.join("benchmarks", "output", "flightrec")


def span_id(index: int) -> str:
    """The exemplar ID of schedule-index *index* (globally unique:
    schedule indices never repeat across servers or shards)."""
    return f"r-{index}"


def make_span(index: int, server: int, conn: int, stage: int,
              tenant: str, kind: str, arrival_ns: int, latency_ns: int,
              admission_ns: int = 0, conn_wait_ns: int = 0,
              queue_ns: int = 0, shed: bool = False,
              stalled: bool = False) -> Dict:
    """Build one JSON-safe span tree.  ``service`` is the remainder
    ``latency - admission - conn_wait - queue`` so the zero-residual
    invariant holds by construction; a negative remainder is a caller
    bug (stages exceeding the recorded latency) and raises."""
    service_ns = latency_ns - admission_ns - conn_wait_ns - queue_ns
    if service_ns < 0:
        raise ValueError(
            f"span {span_id(index)}: stages exceed latency "
            f"({admission_ns}+{conn_wait_ns}+{queue_ns} > {latency_ns})")
    return {
        "id": span_id(index),
        "index": index,
        "server": server,
        "conn": conn,
        "stage": stage,
        "tenant": tenant,
        "kind": kind,
        "arrival_ns": arrival_ns,
        "latency_ns": latency_ns,
        "shed": bool(shed),
        "stalled": bool(stalled),
        "stages": [[STAGE_NAMES[0], admission_ns],
                   [STAGE_NAMES[1], conn_wait_ns],
                   [STAGE_NAMES[2], queue_ns],
                   [STAGE_NAMES[3], service_ns]],
    }


def residual(span: Dict) -> int:
    """``latency - sum(stage durations)`` — 0 for every well-formed
    span; ``sloexplain`` refuses to render anything else."""
    return span["latency_ns"] - sum(dur for _name, dur in span["stages"])


def group_key(span: Dict) -> str:
    """The reservoir group of a span: ``"stage:tenant:kind"`` (names,
    not indices — spans are forensics artifacts, read by humans)."""
    return f"{span['stage']}:{span['tenant']}:{span['kind']}"


def _slowness(span: Dict) -> Tuple[int, int]:
    """Total order for tail ranking: slowest first, index breaks ties
    (indices are unique, so the order — hence the trim — is exact)."""
    return (-span["latency_ns"], span["index"])


class ExemplarReservoir:
    """Deterministic rank-based retention of span trees.

    Per ``(stage, tenant, kind)`` group: the ``per_group`` slowest
    completed spans.  Shed/stalled spans are kept separately, earliest
    ``shed_keep`` per group (shedding onset is where the knee forensics
    live), with the exact total always tallied.  Offer order is
    irrelevant to the output — ranking is by ``(-latency, index)`` /
    ``(index)``, both total orders.
    """

    def __init__(self, per_group: int = 4, shed_keep: int = 16):
        if per_group <= 0:
            raise ValueError("per_group must be positive")
        if shed_keep < 0:
            raise ValueError("shed_keep must be >= 0")
        self.per_group = per_group
        self.shed_keep = shed_keep
        self._groups: Dict[str, List[Dict]] = {}
        self._shed: Dict[str, List[Dict]] = {}
        self.shed_total = 0

    def offer(self, span: Dict) -> None:
        if span["shed"]:
            self.shed_total += 1
            if self.shed_keep == 0:
                return
            bucket = self._shed.setdefault(group_key(span), [])
            bucket.append(span)
            if len(bucket) > 4 * self.shed_keep:
                bucket.sort(key=lambda s: s["index"])
                del bucket[self.shed_keep:]
            return
        bucket = self._groups.setdefault(group_key(span), [])
        bucket.append(span)
        # Amortized trim: exact because ranking is a total order.
        if len(bucket) > 4 * self.per_group:
            bucket.sort(key=_slowness)
            del bucket[self.per_group:]

    def to_doc(self) -> Dict:
        """Final (fully trimmed) JSON-safe reservoir document."""
        return {
            "schema": SPAN_SCHEMA_VERSION,
            "per_group_keep": self.per_group,
            "shed_keep": self.shed_keep,
            "per_group": {
                key: sorted(bucket, key=_slowness)[:self.per_group]
                for key, bucket in sorted(self._groups.items())
            },
            "shed": {
                key: sorted(bucket,
                            key=lambda s: s["index"])[:self.shed_keep]
                for key, bucket in sorted(self._shed.items())
            },
            "shed_total": self.shed_total,
        }


def merge_exemplar_docs(docs: Sequence[Dict], per_group: int,
                        shed_keep: int) -> Dict:
    """Fold per-server reservoir docs into one — shard-count-blind.

    Union then re-trim with the same total orders the per-server
    reservoirs used; since every global winner is a winner on its own
    server, the result equals the unsharded reservoir whatever the
    server→shard dealing was.
    """
    groups: Dict[str, List[Dict]] = {}
    sheds: Dict[str, List[Dict]] = {}
    shed_total = 0
    for doc in docs:
        for key, spans in doc.get("per_group", {}).items():
            groups.setdefault(key, []).extend(spans)
        for key, spans in doc.get("shed", {}).items():
            sheds.setdefault(key, []).extend(spans)
        shed_total += doc.get("shed_total", 0)
    return {
        "schema": SPAN_SCHEMA_VERSION,
        "per_group_keep": per_group,
        "shed_keep": shed_keep,
        "per_group": {key: sorted(spans, key=_slowness)[:per_group]
                      for key, spans in sorted(groups.items())},
        "shed": {key: sorted(spans, key=lambda s: s["index"])[:shed_keep]
                 for key, spans in sorted(sheds.items())},
        "shed_total": shed_total,
    }


def iter_spans(exemplars: Dict) -> Iterator[Dict]:
    """Every retained span in an exemplar doc, deterministic order
    (completed groups first, then shed groups)."""
    for _key, spans in sorted(exemplars.get("per_group", {}).items()):
        yield from spans
    for _key, spans in sorted(exemplars.get("shed", {}).items()):
        yield from spans


def find_span(exemplars: Dict, wanted_id: str) -> Optional[Dict]:
    for span in iter_spans(exemplars):
        if span["id"] == wanted_id:
            return span
    return None


def worst_span(exemplars: Dict) -> Optional[Dict]:
    """The slowest retained *completed* span (shed spans are a separate
    forensics channel — their latency is time-to-rejection)."""
    worst = None
    for _key, spans in sorted(exemplars.get("per_group", {}).items()):
        for span in spans:
            if worst is None or _slowness(span) < _slowness(worst):
                worst = span
    return worst


class SpanFlightRecorder:
    """Bounded ring of the most recent spans — the flight recorder.

    Always cheap to feed (deque append), only materialized on demand:
    the traffic engine dumps it when stall-shed detection fires, the
    shadow harness on the first :class:`ShadowDivergence`.  Entries are
    plain dicts, so lightweight closed-loop exchange records (from
    :class:`~repro.workloads.clients.KeepAliveSource`) ride in the same
    ring as full span trees.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.spans: deque = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, span: Dict) -> None:
        self.spans.append(span)
        self.recorded += 1

    def snapshot(self) -> List[Dict]:
        return list(self.spans)

    def dump(self, path: str, reason: str) -> str:
        """Write the ring as a JSON forensics artifact; returns the
        path.  Serialization is pinned like every other artifact."""
        doc = {
            "schema": SPAN_SCHEMA_VERSION,
            "reason": reason,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "spans": self.snapshot(),
        }
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return path


def flight_dir() -> str:
    return os.environ.get(FLIGHT_DIR_ENV, DEFAULT_FLIGHT_DIR)


class TraceContext:
    """The trace-context field threaded through the traffic path.

    One per fleet server (per mechanism).  ``record`` is the single
    entry point both serve modes call per finished (or shed) request:
    it builds the span tree, offers it to the exemplar reservoir, feeds
    the flight ring, and — when a kernel ``bus`` is attached *and*
    enabled — emits a :class:`RequestSpan` event (null-sink guard:
    disabled buses cost one predicate).
    """

    def __init__(self, server: int, tenant_names: Sequence[str],
                 kind_names: Sequence[str], per_group: int = 4,
                 shed_keep: int = 16, flight_capacity: int = 256,
                 bus=None):
        self.server = server
        self.tenant_names = tuple(tenant_names)
        self.kind_names = tuple(kind_names)
        self.reservoir = ExemplarReservoir(per_group, shed_keep)
        self.flight = SpanFlightRecorder(flight_capacity)
        self.bus = bus

    def record(self, index: int, conn: int, stage: int, tenant: int,
               kind: int, arrival_ns: int, latency_ns: int,
               admission_ns: int = 0, conn_wait_ns: int = 0,
               queue_ns: int = 0, shed: bool = False,
               stalled: bool = False, ts: int = 0) -> Dict:
        span = make_span(
            index=index, server=self.server, conn=conn, stage=stage,
            tenant=self.tenant_names[tenant], kind=self.kind_names[kind],
            arrival_ns=arrival_ns, latency_ns=latency_ns,
            admission_ns=admission_ns, conn_wait_ns=conn_wait_ns,
            queue_ns=queue_ns, shed=shed, stalled=stalled)
        self.reservoir.offer(span)
        self.flight.record(span)
        if self.bus is not None and self.bus.enabled:
            from repro.observability.events import RequestSpan

            self.bus.emit(
                RequestSpan, ts=ts, pid=0, tid=0, request=span["id"],
                server=self.server, conn=conn, stage=stage,
                tenant=span["tenant"], kind=span["kind"],
                arrival_ns=arrival_ns, latency_ns=latency_ns,
                admission_ns=admission_ns, conn_wait_ns=conn_wait_ns,
                queue_ns=queue_ns,
                service_ns=span["stages"][3][1],
                shed=bool(shed), stalled=bool(stalled))
        return span


def syscall_profile(analyzer, requests: int) -> Dict:
    """Render a :class:`LatencyAnalyzer`'s per-(phase, nr) histograms as
    the calibrated per-kind syscall sub-span profile.

    ``count``/``cycles`` are exact integer totals over *requests*
    calibration round trips; consumers divide for per-request rates
    (integer math only — see ``sloexplain``).  Rows sort by descending
    cycles so the dominant sub-span leads.
    """
    from repro.kernel.syscalls import Nr

    rows = []
    for (phase, nr), hist in analyzer.histograms.items():
        rows.append({
            "phase": phase,
            "name": Nr.name_of(nr),
            "count": hist.count,
            "cycles": hist.total,
        })
    rows.sort(key=lambda r: (-r["cycles"], r["phase"], r["name"]))
    return {"requests": requests, "rows": rows}
