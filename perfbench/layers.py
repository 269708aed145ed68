"""The layers of ``repro`` the traced run splits host time into.

Each layer is named after its module.  :data:`ENTRY_POINTS` lists the
public entry points wrapped as spans; :class:`LayerTrace` installs them
on a :class:`~spans.Tracer`, collects the counts that go with them, and
turns both into the per-layer metrics :data:`LAYER_METRICS` names.

Attribution rules worth knowing when reading the numbers:

- ``cpu`` is the self time of ``Kernel.run``/``run_process`` — the
  scheduler and interpreter loop — once the syscall, signal, hostcall
  and bus spans it calls into are subtracted;
- ``kernel`` is boot (``Kernel.__init__``), process spawn (the loader),
  and the syscall and signal paths;
- ``interposers`` is mechanism install plus the host-side handler bodies
  reached through ``dispatch_hostcall``;
- ``memory`` is copy-on-write address-space snapshot, restore and fork;
- whatever runs outside every span (CLI parsing, table rendering,
  artifact writing, the benchmark's own checks) is ``other_s``.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import weakref
from typing import Dict, List, Tuple

from spans import Tracer

#: Mechanism families ``kernel.run_s`` is split by.
FAMILIES = ("native", "zpoline", "lazypoline", "K23", "SUD")

#: (layer, span name, target) — target as :func:`spans.resolve` reads it.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("evaluation.pipeline", "pipeline.execute_cell",
     "repro.evaluation.pipeline:execute_cell"),
    ("evaluation.cache", "cache.key", "repro.evaluation.cache:cell_key"),
    ("kernel", "kernel.spawn", "repro.kernel.kernel:Kernel.spawn_process"),
    ("kernel", "kernel.syscall", "repro.kernel.kernel:Kernel.handle_syscall"),
    ("kernel", "kernel.signal", "repro.kernel.kernel:Kernel.deliver_signal"),
    ("interposers", "interposers.hostcall",
     "repro.kernel.kernel:Kernel.dispatch_hostcall"),
    ("core", "core.import_logs", "repro.core.offline:import_logs"),
    ("traffic", "traffic.calibrate",
     "repro.traffic.fleet:calibrate_service_table"),
    ("traffic", "traffic.merge", "repro.traffic.engine:merge_mechanism"),
    ("observability", "observability.emit",
     "repro.observability.bus:Bus.emit"),
    ("faultinject", "faultinject.schedule",
     "repro.faultinject.schedule:build_schedule"),
    ("faultinject", "faultinject.attach",
     "repro.faultinject.engine:FaultInjector.__init__"),
    ("faultinject", "faultinject.inject",
     "repro.faultinject.engine:FaultInjector._note"),
    ("faultinject", "faultinject.syscall_entry",
     "repro.faultinject.engine:FaultInjector.on_syscall_entry"),
    ("faultinject", "faultinject.syscall_exit",
     "repro.faultinject.engine:FaultInjector.on_syscall_exit"),
    ("replay", "replay.accept", "repro.replay.recorder:Recorder.accept"),
    ("replay", "replay.round",
     "repro.replay.recorder:Recorder.on_round_boundary"),
    ("replay", "replay.capture", "repro.replay.checkpoint:capture"),
    ("replay", "replay.restore", "repro.replay.checkpoint:restore"),
    ("replay", "replay.bundle", "repro.replay.replayer:replay_bundle"),
    ("memory", "memory.snapshot",
     "repro.memory.address_space:AddressSpace.snapshot"),
    ("memory", "memory.restore",
     "repro.memory.address_space:AddressSpace.restore"),
    ("memory", "memory.fork_copy",
     "repro.memory.address_space:AddressSpace.fork_copy"),
)

#: Layers in report order (``other_s`` closes the sum).
LAYERS = ("cpu", "kernel", "interposers", "core", "evaluation.pipeline",
          "evaluation.cache", "traffic", "observability", "faultinject",
          "replay", "memory")

#: Metric prefix per layer.
PREFIX = {"evaluation.pipeline": "pipeline", "evaluation.cache": "cache"}

#: Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = ("cpu.insns", "cpu.sim_cycles", "observability.events",
                "faultinject.injections", "pipeline.cells")

_S, _NS, _N, _R = "s", "ns", "count", "ratio"

#: Every per-layer metric: name → (unit, better, what it should move on
#: which workload, and where it should stay flat).
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "cpu.insns": (_N, "lower", "exact; correctness, never timing"),
    "cpu.sim_cycles": (_N, "lower", "exact; correctness, never timing"),
    "cpu.host_ns_per_insn.native": (
        _NS, "lower", "run_s on matrix-cold, conformance-replay; "
        "flat on loadtest-model"),
    "cpu.host_ns_per_insn.interposed": (
        _NS, "lower", "run_s on matrix-cold, conformance-replay; "
        "flat on loadtest-model"),
    "cpu.block_hit_ratio": (_R, "higher", "run_s on matrix-cold, "
                            "conformance-replay; flat on loadtest-model"),
    "cpu.trace_hit_ratio": (_R, "higher", "run_s on matrix-cold, "
                            "conformance-replay; flat on loadtest-model"),
    "cpu.guard_fails": (_N, "lower", "run_s on matrix-cold, "
                        "conformance-replay; flat on loadtest-model"),
    "kernel.boots": (_N, "lower", "run_s on conformance-replay; "
                     "flat on loadtest-model"),
    "kernel.boot_s": (_S, "lower", "run_s on conformance-replay; "
                      "flat on loadtest-model"),
    **{f"kernel.run_s.{family}": (
        _S, "lower", "run_s on matrix-cold; flat on loadtest-model")
       for family in FAMILIES},
    "interposers.installs": (_N, "lower", "run_s on matrix-cold, "
                             "conformance-replay; flat on loadtest-model"),
    "interposers.install_s": (_S, "lower", "run_s on matrix-cold, "
                              "conformance-replay; flat on loadtest-model"),
    "core.offline_runs": (_N, "lower", "run_s on matrix-cold; "
                          "flat on loadtest-model"),
    "core.offline_s": (_S, "lower", "run_s on matrix-cold; "
                       "flat on loadtest-model"),
    "core.offline_reuse_ratio": (_R, "higher", "run_s on matrix-cold; "
                                 "flat on loadtest-model"),
    "pipeline.cells": (_N, "lower", "exact; correctness, never timing"),
    "pipeline.shard_busy_max_s": (_S, "lower", "run_s on matrix-cold; "
                                  "flat on the serial workloads"),
    "pipeline.shard_imbalance": (_R, "lower", "run_s on matrix-cold; "
                                 "flat on the serial workloads"),
    "pipeline.overhead_s": (_S, "lower", "run_s on matrix-cold; "
                            "flat on the serial workloads"),
    "cache.key_s": (_S, "lower", "setup_s everywhere; run_s on "
                    "matrix-cold"),
    "cache.get_s": (_S, "lower", "setup_s everywhere; run_s on "
                    "matrix-cold"),
    "cache.put_s": (_S, "lower", "setup_s everywhere; run_s on "
                    "matrix-cold"),
    "cache.hit_ratio": (_R, "higher", "setup_s everywhere; run_s on "
                        "matrix-cold"),
    "traffic.schedule_s": (_S, "lower", "requests_per_s on "
                           "loadtest-model; flat on the other two"),
    "traffic.schedule_reuse_ratio": (_R, "higher", "requests_per_s on "
                                     "loadtest-model; flat on the other "
                                     "two"),
    "traffic.calibrate_s": (_S, "lower", "requests_per_s on "
                            "loadtest-model; flat on the other two"),
    "traffic.fabric_ns_per_request": (_NS, "lower", "requests_per_s on "
                                      "loadtest-model; flat on the other "
                                      "two"),
    "traffic.merge_s": (_S, "lower", "requests_per_s on loadtest-model; "
                        "flat on the other two"),
    "observability.events": (_N, "lower", "exact; run_s on "
                             "conformance-replay; flat on matrix-cold"),
    "observability.sink_s": (_S, "lower", "run_s on conformance-replay; "
                             "flat on matrix-cold (bus off)"),
    "faultinject.injections": (_N, "lower", "exact; correctness on "
                               "conformance-replay"),
    "replay.checkpoints": (_N, "lower", "run_s on conformance-replay; "
                           "flat on the other two"),
    "replay.record_s": (_S, "lower", "run_s on conformance-replay; "
                        "flat on the other two"),
    "replay.replay_s": (_S, "lower", "run_s on conformance-replay; "
                        "flat on the other two"),
    "memory.snapshot_s": (_S, "lower", "run_s on conformance-replay; "
                          "flat on the other two"),
    **{f"{PREFIX.get(layer, layer)}.self_s": (
        _S, "lower", "run_s on the workloads that load the layer")
       for layer in LAYERS},
    "other_s": (_S, "lower", "host time outside every span; all"),
    "trace.total_s": (_S, "lower", "traced window; self times plus "
                      "other_s sum to it exactly"),
    "trace.overhead_s": (_S, "lower", "traced minus untraced CPU seconds "
                         "(speed-scaled, see speed.py) on the same serial "
                         "configuration"),
    "exact.drift": (_N, "lower", "exact counts that differ from the "
                    "recorded reference; 0 unless semantics changed"),
}


class LayerTrace:
    """A :class:`Tracer` over :data:`ENTRY_POINTS` plus per-layer counts."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.families: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self._tokens: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self._next_token = itertools.count()
        self._finalizers: List[weakref.finalize] = []
        self.interp: Dict[int, Dict[str, int]] = {}
        self.retired: Dict[str, int] = collections.Counter()
        self.sim = {"insns": 0, "cycles": 0}
        self.offline_inputs: set = set()
        self.schedule_inputs: set = set()
        self.fabric_requests = 0
        self.cache_hits = 0

    # ---------------------------------------------------------- hooks

    def _family(self, args, _kwargs) -> str:
        kernel = args[0]
        family = self.families.get(kernel)
        if family is not None:
            return family
        interposer = kernel.interposer
        if interposer is not None and \
                type(interposer).__module__.startswith("repro.core."):
            return "K23"  # the offline phase's logger
        return "native"

    def _after_boot(self, args, _kwargs, _result, _sub, _elapsed) -> None:
        from repro.cpu.cycles import Event

        kernel = args[0]
        self._tokens[kernel] = next(self._next_token)
        sim = self.sim

        def collect(cycles, instruction=Event.INSTRUCTION):
            sim["insns"] += cycles.counts[instruction]
            sim["cycles"] += cycles.cycles

        self._finalizers.append(weakref.finalize(kernel, collect,
                                                 kernel.cycles))

    def _after_run(self, args, _kwargs, retired, family, _elapsed) -> None:
        kernel = args[0]
        self.retired[family] += retired
        token = self._tokens.get(kernel)
        if token is not None:  # booted while traced
            self.interp[token] = kernel.interp_stats()

    def _after_install(self, args, kwargs, _result, _sub, _elapsed) -> None:
        call = dict(zip(("registry", "name", "kernel"), args), **kwargs)
        self.families[call["kernel"]] = \
            call["registry"].get(call["name"]).family

    def _after_offline(self, args, _kwargs, _result, _sub, _elapsed) -> None:
        phase, path = args[0], args[1]
        logs = json.dumps(phase.export(), sort_keys=True)
        self.offline_inputs.add(
            (path, hashlib.sha256(logs.encode()).hexdigest()))

    def _after_schedule(self, args, kwargs, _result, _sub, _elapsed) -> None:
        self.schedule_inputs.add(repr((args, sorted(kwargs.items()))))

    def _after_fabric(self, _args, _kwargs, doc, _sub, _elapsed) -> None:
        self.fabric_requests += sum(doc["offered"].values())

    def _after_get(self, _args, _kwargs, value, _sub, _elapsed) -> None:
        from repro.evaluation.cache import MISS

        if value is not MISS:
            self.cache_hits += 1

    # ------------------------------------------------------- install

    def install(self) -> None:
        tracer = self.tracer
        for layer, name, target in ENTRY_POINTS:
            tracer.patch(target, name, layer)
        kernel = "repro.kernel.kernel:Kernel."
        tracer.patch(kernel + "__init__", "kernel.boot", "kernel",
                     after=self._after_boot)
        for method in ("run", "run_process"):
            tracer.patch(kernel + method, f"cpu.{method}", "cpu",
                         key=self._family, after=self._after_run)
        tracer.patch("repro.interposers.registry:MechanismRegistry.create",
                     "interposers.install", "interposers",
                     after=self._after_install)
        tracer.patch("repro.core.offline:OfflinePhase.run", "core.offline",
                     "core", after=self._after_offline)
        tracer.patch("repro.traffic.schedule:generate_schedule",
                     "traffic.schedule", "traffic",
                     after=self._after_schedule)
        tracer.patch("repro.traffic.loadbalancer:simulate_server",
                     "traffic.fabric", "traffic", after=self._after_fabric)
        for method in ("get", "put"):
            tracer.patch(f"repro.evaluation.cache:ResultCache.{method}",
                         f"cache.{method}", "evaluation.cache",
                         after=self._after_get if method == "get" else None)

    def finish(self) -> None:
        """Fold in the counters of kernels still alive."""
        for finalizer in self._finalizers:
            finalizer()

    # ------------------------------------------------------- metrics

    def metrics(self, pipeline_cells: int) -> Dict[str, float]:
        """Per-layer metrics (the pipeline shard metrics, the tracing
        overhead and the drift count are added by the caller)."""
        t = self.tracer
        calls, incl, self_ns = t.calls, t.incl_ns, t.self_ns
        sec = 1e-9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        interp = collections.Counter()
        for stats in self.interp.values():
            interp.update(stats)
        cpu_ns = collections.Counter()
        for (name, family), ns in t.keyed_self_ns.items():
            if name.startswith("cpu."):
                cpu_ns[family] += ns
        native = "native"
        interposed_ns = sum(ns for f, ns in cpu_ns.items() if f != native)
        interposed_insns = sum(n for f, n in self.retired.items()
                               if f != native)
        out: Dict[str, float] = {
            "cpu.insns": self.sim["insns"],
            "cpu.sim_cycles": self.sim["cycles"],
            "cpu.host_ns_per_insn.native": ratio(cpu_ns[native],
                                                 self.retired[native]),
            "cpu.host_ns_per_insn.interposed": ratio(interposed_ns,
                                                     interposed_insns),
            "cpu.block_hit_ratio": ratio(
                interp["block_hits"],
                interp["block_hits"] + interp["block_installs"]),
            "cpu.trace_hit_ratio": ratio(interp["trace_hits"],
                                         interp["superblock_hits"]),
            "cpu.guard_fails": interp["guard_fails"],
            "kernel.boots": calls["kernel.boot"],
            "kernel.boot_s": incl["kernel.boot"] * sec,
        }
        for family in FAMILIES:
            out[f"kernel.run_s.{family}"] = sec * sum(
                ns for (name, fam), ns in t.keyed_incl_ns.items()
                if name.startswith("cpu.") and fam == family)
        offline_runs = calls["core.offline"]
        out.update({
            "interposers.installs": calls["interposers.install"],
            "interposers.install_s": incl["interposers.install"] * sec,
            "core.offline_runs": offline_runs,
            "core.offline_s": incl["core.offline"] * sec,
            "core.offline_reuse_ratio": ratio(len(self.offline_inputs),
                                              offline_runs),
            "pipeline.cells": pipeline_cells,
            "cache.key_s": incl["cache.key"] * sec,
            "cache.get_s": incl["cache.get"] * sec,
            "cache.put_s": incl["cache.put"] * sec,
            "cache.hit_ratio": ratio(self.cache_hits, calls["cache.get"]),
            "traffic.schedule_s": incl["traffic.schedule"] * sec,
            "traffic.schedule_reuse_ratio": ratio(
                len(self.schedule_inputs), calls["traffic.schedule"]),
            "traffic.calibrate_s": incl["traffic.calibrate"] * sec,
            "traffic.fabric_ns_per_request": ratio(
                incl["traffic.fabric"], self.fabric_requests),
            "traffic.merge_s": incl["traffic.merge"] * sec,
            "observability.events": calls["observability.emit"],
            "observability.sink_s": self_ns["observability.emit"] * sec,
            "faultinject.injections": calls["faultinject.inject"],
            "replay.checkpoints": calls["replay.capture"],
            "replay.record_s": incl["replay.record"] * sec,
            "replay.replay_s": incl["replay.bundle"] * sec,
            "memory.snapshot_s": sec * (incl["memory.snapshot"]
                                        + incl["memory.restore"]
                                        + incl["memory.fork_copy"]),
        })
        layer_ns = t.layer_self_ns()
        for layer in LAYERS:
            out[f"{PREFIX.get(layer, layer)}.self_s"] = \
                layer_ns.get(layer, 0) * sec
        out["other_s"] = t.other_ns * sec
        out["trace.total_s"] = t.total_ns * sec
        return out

    def residual_ns(self) -> int:
        """Traced total minus (layer self times + other): always 0."""
        t = self.tracer
        return t.total_ns - sum(t.layer_self_ns().values()) - t.other_ns
