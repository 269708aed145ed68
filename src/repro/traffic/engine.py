"""Shard, run, merge: the traffic engine's orchestration layer.

A load test over M mechanisms and S fleet servers is ``M × shards``
pipeline cells (kind ``"loadtest"``), sharded **by server**: server
``s`` belongs to shard ``s % nshards``.  The parent builds the full
arrival schedule once, before the pool forks, and every cell reads that
one seeded schedule from the memo (a spawn-start worker rebuilds the
identical bytes) and runs only its servers — in model mode through the
calibrated queueing fabric, in full mode on real kernels via the
admission seam.  The merge is shard-count-blind by construction:

- per-(stage, tenant, kind) tallies are commutative integer sums;
- latency histograms merge exactly (``count``/``sum`` + sparse bucket
  tables — the LatencyAnalyzer fix this PR rides on);
- queue-depth series are keyed by server id, and servers never split
  across shards;
- percentiles/knees are computed once, *after* the merge.

Hence the headline guarantee: ``--jobs 1/2/4`` produce byte-identical
``METRICS_slo.json``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability.analyzers.latency import LogHistogram
from repro.traffic.config import TrafficConfig
from repro.traffic.fleet import (calibrate_service_table, resolve_rate,
                                 run_server_full, service_ns_table)
from repro.traffic.loadbalancer import simulate_server
from repro.traffic.schedule import NS, ArrivalSchedule, generate_schedule
from repro.traffic.slo import SLO_SCHEMA_VERSION, SLOReport


def shard_servers(servers: int, shard: int, nshards: int) -> List[int]:
    return [s for s in range(servers) if s % nshards == shard]


def run_shard(mechanism: str, workload: str, traffic_doc: Dict, seed: int,
              shard: int, nshards: int) -> Dict:
    """Execute one loadtest cell: this shard's servers, one mechanism.

    *traffic_doc* is the canonical (rate-resolved) config dict; the
    cell is a pure function of its arguments, so the pipeline cache
    memoizes it soundly.
    """
    traffic = TrafficConfig.from_dict(traffic_doc)
    schedule = generate_schedule(traffic, seed)
    servers = shard_servers(traffic.servers, shard, nshards)
    calibration = calibrate_service_table(mechanism, workload, traffic, seed)

    def trace_for(server: int):
        if not traffic.spans:
            return None
        from repro.observability.spans import TraceContext

        return TraceContext(server=server,
                            tenant_names=schedule.tenant_names,
                            kind_names=schedule.kind_names,
                            per_group=traffic.exemplars,
                            shed_keep=traffic.shed_exemplars)

    traces = {server: trace_for(server) for server in servers}
    if traffic.serve_mode == "model":
        table = service_ns_table(calibration, schedule)
        docs = [simulate_server(server, schedule, table, traffic.workers,
                                traffic.queue_limit, trace=traces[server])
                for server in servers]
    else:
        docs = [run_server_full(mechanism, workload, traffic, seed, server,
                                schedule, trace=traces[server])
                for server in servers]
    if traffic.spans:
        for server, doc in zip(servers, docs):
            doc["exemplars"] = traces[server].reservoir.to_doc()
    return {
        "mechanism": mechanism,
        "shard": shard,
        "shards": nshards,
        "schedule_digest": schedule.digest(),
        "calibration": calibration,
        "servers": docs,
    }


# ------------------------------------------------------------------ merging


def _parse_key(key: str) -> Tuple[int, int, int]:
    stage, tenant, kind = key.split(":")
    return int(stage), int(tenant), int(kind)


def merge_mechanism(shard_docs: Sequence[Dict], traffic: TrafficConfig,
                    schedule: ArrivalSchedule) -> Dict:
    """Fold one mechanism's shard docs into its report section.

    Order-independent: docs are re-sorted by server id and every
    reduction is a commutative integer sum or an exact histogram merge.
    """
    digests = {doc["schedule_digest"] for doc in shard_docs}
    if len(digests) != 1:
        raise ValueError(f"shards disagree on the arrival schedule: "
                         f"{sorted(digests)}")
    server_docs = sorted((s for doc in shard_docs for s in doc["servers"]),
                         key=lambda s: s["server"])

    offered: Dict[Tuple[int, int, int], int] = {}
    completed: Dict[Tuple[int, int, int], int] = {}
    shed: Dict[Tuple[int, int, int], int] = {}
    latency: Dict[Tuple[int, int, int], LogHistogram] = {}
    stage_max_depth = [0] * len(traffic.ramp)
    queue_depth: Dict[str, List] = {}
    for doc in server_docs:
        for name, table in (("offered", offered), ("completed", completed),
                            ("shed", shed)):
            for key, n in doc[name].items():
                parsed = _parse_key(key)
                table[parsed] = table.get(parsed, 0) + n
        for key, hist_doc in doc["latency"].items():
            parsed = _parse_key(key)
            hist = latency.get(parsed)
            if hist is None:
                latency[parsed] = LogHistogram.from_dict(hist_doc)
            else:
                hist.merge(LogHistogram.from_dict(hist_doc))
        for stage, depth in enumerate(doc["stage_max_depth"]):
            stage_max_depth[stage] = max(stage_max_depth[stage], depth)
        queue_depth[str(doc["server"])] = doc["depth_series"]

    overall = LogHistogram()
    per_tenant: Dict[int, LogHistogram] = {}
    per_kind: Dict[int, LogHistogram] = {}
    per_stage: Dict[int, LogHistogram] = {}
    for (stage, tenant, kind), hist in latency.items():
        overall.merge(hist)
        for axis, index in ((per_tenant, tenant), (per_kind, kind),
                            (per_stage, stage)):
            bucket = axis.get(index)
            if bucket is None:
                axis[index] = _copy_hist(hist)
            else:
                bucket.merge(hist)

    stages = _stage_rows(traffic, schedule, offered, completed, shed,
                         per_stage, stage_max_depth)
    knee = _find_knee(traffic, stages)
    exemplars = None
    if any("exemplars" in doc for doc in server_docs):
        from repro.observability.spans import merge_exemplar_docs

        exemplars = merge_exemplar_docs(
            [doc["exemplars"] for doc in server_docs
             if "exemplars" in doc],
            traffic.exemplars, traffic.shed_exemplars)
    section = {
        "totals": {
            "offered": sum(offered.values()),
            "completed": sum(completed.values()),
            "shed": sum(shed.values()),
        },
        "latency_ns": {
            "overall": overall.to_dict(),
            "per_tenant": {schedule.tenant_names[t]: hist.to_dict()
                           for t, hist in sorted(per_tenant.items())},
            "per_kind": {schedule.kind_names[k]: hist.to_dict()
                         for k, hist in sorted(per_kind.items())},
        },
        "stages": stages,
        "queue_depth": dict(sorted(queue_depth.items(),
                                   key=lambda kv: int(kv[0]))),
        "knee": knee,
        "calibration": shard_docs[0]["calibration"],
    }
    if exemplars is not None:
        section["exemplars"] = exemplars
    return section


def _copy_hist(hist: LogHistogram) -> LogHistogram:
    clone = LogHistogram()
    clone.merge(hist)
    return clone


def _stage_rows(traffic: TrafficConfig, schedule: ArrivalSchedule,
                offered, completed, shed, per_stage,
                stage_max_depth) -> List[Dict]:
    rows = []
    bounds = schedule.stage_bounds()
    for stage, multiplier in enumerate(traffic.ramp):
        first, end = bounds[stage]
        start_ns = schedule.t_ns[first - 1] if first > 0 else 0
        span = max(1, (schedule.t_ns[end - 1] if end > first else start_ns)
                   - start_ns)
        stage_completed = sum(n for (s, _t, _k), n in completed.items()
                              if s == stage)
        hist = per_stage.get(stage, LogHistogram())
        rows.append({
            "stage": stage,
            "rate": traffic.rate * multiplier,
            "offered": sum(n for (s, _t, _k), n in offered.items()
                           if s == stage),
            "completed": stage_completed,
            "shed": sum(n for (s, _t, _k), n in shed.items() if s == stage),
            "throughput_rps": stage_completed * NS // span,
            "p50_ns": hist.percentile(50),
            "p99_ns": hist.percentile(99),
            "p999_ns": hist.percentile(99.9),
            "pmax_ns": hist.max,
            "max_depth": stage_max_depth[stage],
        })
    return rows


def _find_knee(traffic: TrafficConfig, stages: List[Dict]) -> Dict:
    """First ramp stage that violates the SLO: p99 above the budget or
    any load shed.  ``None`` fields mean the ramp never saturated."""
    budget_ns = traffic.slo_p99_ms * 1_000_000
    for row in stages:
        if row["shed"] > 0 or row["p99_ns"] > budget_ns:
            reason = "shed" if row["shed"] > 0 else "p99-slo"
            return {"stage": row["stage"], "rate": row["rate"],
                    "reason": reason, "p99_ns": row["p99_ns"],
                    "budget_ns": budget_ns}
    return {"stage": None, "rate": None, "reason": None,
            "p99_ns": stages[-1]["p99_ns"] if stages else 0,
            "budget_ns": budget_ns}


# ---------------------------------------------------------------- the driver


def loadtest_specs(mechanisms: Sequence[str], workload: str,
                   traffic_doc: Dict, seed: int, nshards: int):
    """Enumerate the pipeline cells for one load test (mechanism-major,
    then shard — enumeration order is part of the deterministic shard
    dealing contract)."""
    from repro.evaluation.pipeline import ScenarioSpec

    blob = json.dumps(traffic_doc, sort_keys=True)
    return [
        ScenarioSpec("loadtest", mechanism, workload, seed,
                     (("shard", shard), ("shards", nshards),
                      ("traffic", blob)))
        for mechanism in mechanisms
        for shard in range(nshards)
    ]


def run_loadtest(mechanisms: Sequence[str], workload: str,
                 traffic: TrafficConfig, seed: int, jobs: int = 1,
                 cache=None, timeout: Optional[float] = None) -> SLOReport:
    """Run one load test end to end and return the merged SLO report.

    ``jobs`` doubles as the shard count (capped by the fleet size) and
    the pipeline's worker count; the report is byte-identical whatever
    value is passed.
    """
    from repro.evaluation.pipeline import DEFAULT_CELL_TIMEOUT, run_cells
    from repro.traffic.schedule import schedule_summary

    traffic = resolve_rate(traffic, workload, seed)
    canonical = traffic.canonical()
    nshards = max(1, min(jobs, traffic.servers))
    specs = loadtest_specs(mechanisms, workload, canonical, seed, nshards)
    # Built before the pool forks: the workers' run_shard calls hit the
    # inherited memo instead of each drawing the schedule again, and the
    # model fabric's key column comes with it.
    schedule = generate_schedule(traffic, seed)
    if traffic.serve_mode == "model":
        schedule.keys  # computed here, kept with the memoised schedule
    run = run_cells(specs, jobs=jobs, cache=cache,
                    timeout=timeout or DEFAULT_CELL_TIMEOUT)

    sections = {}
    for mechanism in mechanisms:
        docs = [run.value(spec) for spec in specs
                if spec.mechanism == mechanism]
        sections[mechanism] = merge_mechanism(docs, traffic, schedule)
    doc = {
        "schema": SLO_SCHEMA_VERSION,
        "workload": workload,
        "seed": seed,
        "traffic": canonical,
        "schedule": schedule_summary(schedule),
        "mechanisms": sections,
    }
    return SLOReport(doc=doc, stats=run.stats)
