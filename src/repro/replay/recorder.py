"""The record side: one bus sink + one kernel hook → one replay bundle.

A :class:`Recorder` attaches twice to a run:

- **as a bus sink** it writes ``events.jsonl`` — the full semantic event
  stream in ``StreamingJSONLSink`` v2 format, so the bundle's trace is
  directly consumable by ``repro tracediff`` / ``repro traceq`` and its
  ``seq`` numbering matches any other streaming sink on the same run;
- **as ``kernel.recorder``** it receives :meth:`on_round_boundary` after
  every scheduler round (the only safe points: mid-round restore would
  restart the round's thread-iteration order and diverge the
  interleave) and :meth:`on_nondet` from the kernel's nondeterministic
  input seams (``getrandom`` draws).

Checkpoint policy: a copy-on-write :func:`~repro.replay.checkpoint.\
capture` is taken at the first **safe** round boundary after every
``interval`` retired instructions.  Safe means: every live process has
completed premain (host objects exist and are re-creatable by a fresh
premain run), no thread is parked on a host blocking closure, no live
socket/listener descriptors (batch workloads only — ``RunConfig``
enforces this), and the fault injector is not mid selector-flip.
Checkpoints are held in memory during the run — the CoW snapshot makes
that cheap — and pickled into the bundle at :meth:`close`, off the
measured path.

Bundle layout (``bundle_dir/``)::

    meta.json          version, config (incl. the full fault-schedule
                       draw log), checkpoint index, final_seq, exit status
    events.jsonl       semantic event stream (JSONL schema v2)
    log.jsonl          ReplayMeta / Nondet / Checkpoint / RecordEnd lines
    checkpoint-N.pkl   pickled MachineState, one per checkpoint
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Dict, List, Optional

from repro.observability.events import ReplayCheckpoint
from repro.observability.sinks import CountingSink, StreamingJSONLSink
from repro.replay.checkpoint import MachineState, capture

#: Bundle format version (meta.json / log.jsonl shape).
REPLAY_BUNDLE_VERSION = 1

#: Default checkpoint spacing in retired instructions.  Batch workloads
#: (the only recordable kind) are syscall-dense and instruction-light —
#: the 120-iteration stress run retires ~2.3k instructions total — so
#: the default is sized to land a handful of checkpoints on them.
DEFAULT_CHECKPOINT_INTERVAL = 1_000

EVENTS_FILE = "events.jsonl"
LOG_FILE = "log.jsonl"
META_FILE = "meta.json"


def config_to_json(config) -> Dict:
    """Serialize the semantically relevant part of a RunConfig.

    Sinks/analyzers/trace paths are observe-only and deliberately
    dropped; the fault schedule is embedded **in full** (every pre-drawn
    uniform and fault, with digest) so replay reloads the exact draws
    rather than re-deriving them.
    """
    return {
        "mechanism": config.mechanism,
        "workload": config.workload,
        "seed": config.seed,
        "params": [[k, v] for k, v in config.params],
        "aslr": config.aslr,
        "block_cache": config.block_cache,
        "max_steps": config.max_steps,
        "requests": config.requests,
        "connections": config.connections,
        "warmup_rounds": config.warmup_rounds,
        "checkpoint_interval": config.checkpoint_interval,
        "schedule": (config.schedule.to_json()
                     if config.schedule is not None else None),
    }


def config_from_json(record: Dict):
    """Rebuild the replay-side RunConfig from a bundle's meta entry."""
    from repro.faultinject.schedule import FaultSchedule
    from repro.runapi import RunConfig

    schedule = None
    if record.get("schedule") is not None:
        schedule = FaultSchedule.from_json(record["schedule"])
    return RunConfig(
        mechanism=record["mechanism"],
        workload=record["workload"],
        seed=record["seed"],
        schedule=schedule,
        params=tuple((k, v) for k, v in record.get("params", [])),
        aslr=record.get("aslr", False),
        block_cache=record.get("block_cache"),
        max_steps=record.get("max_steps", 10_000_000),
        requests=record.get("requests", 32),
        connections=record.get("connections"),
        warmup_rounds=record.get("warmup_rounds", 1),
        checkpoint_interval=record.get("checkpoint_interval",
                                       DEFAULT_CHECKPOINT_INTERVAL),
    )


class Recorder(CountingSink):
    """Record one run into *bundle_dir* (see module docstring)."""

    def __init__(self, bundle_dir: str, kernel, config=None,
                 interval: int = DEFAULT_CHECKPOINT_INTERVAL):
        super().__init__()
        os.makedirs(bundle_dir, exist_ok=True)
        self.bundle_dir = bundle_dir
        self.kernel = kernel
        self.config = config
        self.interval = max(1, int(interval))
        self._events_file = open(os.path.join(bundle_dir, EVENTS_FILE),
                                 "w", encoding="utf-8")
        self._sink = StreamingJSONLSink(self._events_file,
                                        include_charges=False)
        self._log: List[Dict] = [{"type": "ReplayMeta",
                                  "version": REPLAY_BUNDLE_VERSION,
                                  "interval": self.interval}]
        self.checkpoints: List[MachineState] = []
        self.skipped_unsafe = 0
        self._last_checkpoint_insns = 0
        self._closed = False

    # The seq of the most recently written record (header = 0), i.e. the
    # current stream position; mirrors StreamingJSONLSink numbering.
    @property
    def seq(self) -> int:
        return self._sink._seq - 1

    # ---------------------------------------------------------- bus sink

    def accept(self, event) -> None:
        self._sink.accept(event)

    def accept_charges(self, charges: Dict[str, list],
                       raw: Dict[str, list]) -> None:
        self._sink.accept_charges(charges, raw)

    # ------------------------------------------------------ kernel hooks

    def on_nondet(self, kind: str, payload: Dict) -> None:
        """A nondeterministic input was drawn (e.g. ``getrandom`` bytes).

        The simulator derives all such draws from the seeded kernel RNG,
        whose state every checkpoint captures — so the log is not needed
        to *reproduce* the draw, it is the cross-check replay verifies
        actual draws against (the determinism-bug tripwire)."""
        if self._closed:
            return
        entry = {"type": "Nondet", "seq": self.seq, "kind": kind}
        entry.update(payload)
        self._log.append(entry)

    def on_round_boundary(self, retired: int) -> None:
        """Scheduler-round boundary: take a checkpoint if one is due and
        the machine is at a safe point."""
        if self._closed:
            return
        insns = self._insns()
        if insns - self._last_checkpoint_insns < self.interval:
            return
        if not self._at_safe_point():
            self.skipped_unsafe += 1
            return
        index = len(self.checkpoints)
        # Capture BEFORE emitting the marker: the marker's own assigned
        # seq S then anchors the snapshot — every event with seq <= S is
        # pre-capture history, and S itself is the (skipped-in-compare)
        # ReplayCheckpoint record.
        state = capture(self.kernel, seq=self.seq + 1, index=index)
        self._last_checkpoint_insns = insns
        self.checkpoints.append(state)
        kernel = self.kernel
        kernel.bus.emit(ReplayCheckpoint, ts=kernel.cycles.cycles, pid=0,
                        tid=0, seq=state.seq, index=index, insns=state.insns,
                        pages=state.total_pages())
        self._log.append({"type": "Checkpoint", "index": index,
                          "seq": state.seq, "insns": state.insns,
                          "pages": state.total_pages(),
                          "file": f"checkpoint-{index}.pkl"})

    # ------------------------------------------------------------ policy

    def _insns(self) -> int:
        from repro.cpu.cycles import Event

        return self.kernel.cycles.counts[Event.INSTRUCTION]

    def _at_safe_point(self) -> bool:
        from repro.kernel.process import FileFD

        kernel = self.kernel
        for proc in kernel.processes.values():
            if proc.exited:
                continue
            if proc.premain_log_len == 0:
                return False
            for thread in proc.threads:
                if not thread.exited and thread.block_condition is not None:
                    return False
            for descriptor in proc.fds.values():
                if not isinstance(descriptor, FileFD):
                    return False
        injector = kernel.fault_injector
        if injector is not None and injector._selector_restore is not None:
            return False
        return True

    # ------------------------------------------------------------- close

    def close(self, exit_status: Optional[int] = None) -> Dict:
        """Flush the bundle to disk; returns the written meta dict."""
        if self._closed:
            return self._meta
        self._closed = True
        if self.kernel.recorder is self:
            self.kernel.recorder = None
        final_seq = self.seq
        self.flush_charges()
        self._sink.close()
        self._events_file.close()
        for index, state in enumerate(self.checkpoints):
            path = os.path.join(self.bundle_dir, f"checkpoint-{index}.pkl")
            with open(path, "wb") as fh:
                pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._log.append({"type": "RecordEnd", "final_seq": final_seq,
                          "checkpoints": len(self.checkpoints),
                          "skipped_unsafe": self.skipped_unsafe})
        with open(os.path.join(self.bundle_dir, LOG_FILE), "w",
                  encoding="utf-8") as fh:
            for entry in self._log:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        meta = {
            "version": REPLAY_BUNDLE_VERSION,
            "final_seq": final_seq,
            "exit_status": exit_status,
            "interval": self.interval,
            "engine_tiers": self.kernel.engine.flags(),
            "block_cache": self.kernel.block_cache_enabled,
            "skipped_unsafe": self.skipped_unsafe,
            "checkpoints": [{"index": s.index, "seq": s.seq,
                             "insns": s.insns,
                             "file": f"checkpoint-{s.index}.pkl"}
                            for s in self.checkpoints],
        }
        if self.config is not None:
            meta["config"] = config_to_json(self.config)
        with open(os.path.join(self.bundle_dir, META_FILE), "w",
                  encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self._meta = meta
        return meta
