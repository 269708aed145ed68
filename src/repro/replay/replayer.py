"""The replay side: restore the nearest checkpoint, re-execute, compare.

:func:`replay_bundle` is the engine behind ``python -m repro replay``:

1. rebuild the recorded RunConfig from the bundle's ``meta.json``
   (including the embedded fault-schedule draw log) and :func:`prepare`
   a fresh machine from it;
2. re-run the **premain** phase (loader + interposer constructors) on
   that machine — this is what re-creates the host objects (signal
   handler callables, seccomp filter closures, program images, hostcall
   thunks) that checkpoints only reference by marker;
3. pick the last checkpoint with ``seq < to_seq`` and
   :func:`~repro.replay.checkpoint.restore` it in place (no checkpoint
   before ``to_seq`` ⇒ replay from the start, which needs no restore);
4. execute forward in bounded chunks, collecting the live semantic
   event stream, until as many comparable events as the recorded suffix
   ``(checkpoint_seq, to_seq]`` have been observed;
5. compare the replayed suffix byte-for-byte (canonical JSON, ``seq``
   excluded — see :mod:`repro.replay.seqstream`) and cross-check every
   nondeterministic draw against the recorded ``log.jsonl``.

Replay cost is O(premain + to_seq − checkpoint_seq), bounded by the
checkpoint interval rather than the length of the recorded run.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from repro.observability.sinks import Sink
from repro.replay.checkpoint import restore
from repro.replay.recorder import (EVENTS_FILE, LOG_FILE, META_FILE,
                                   REPLAY_BUNDLE_VERSION, config_from_json)
from repro.replay.seqstream import (canonical_line, comparable_records,
                                    load_jsonl)

#: Instructions per forward-execution chunk; small enough that replay
#: overshoots a target seq by at most one chunk of events.
REPLAY_CHUNK_STEPS = 50_000

#: Premain is re-run in small slices so the replayer stops close to the
#: main handoff (overshoot into main is harmless — restore overwrites).
PREMAIN_CHUNK_STEPS = 20_000


class ReplayDivergenceError(Exception):
    """Replay did not reproduce the recorded event suffix."""


@dataclass
class Bundle:
    """A loaded record bundle (meta + replay log + event stream)."""

    path: str
    meta: Dict
    log: List[Dict]
    events: List[Dict]

    @property
    def final_seq(self) -> int:
        return self.meta["final_seq"]

    def checkpoint_before(self, to_seq: int) -> Optional[Dict]:
        """Last checkpoint entry with ``seq < to_seq`` (its own marker
        record is skipped in comparison, so replay must reproduce every
        comparable event in ``(seq, to_seq]``)."""
        candidates = [cp for cp in self.meta.get("checkpoints", [])
                      if cp["seq"] < to_seq]
        return candidates[-1] if candidates else None

    def load_checkpoint(self, entry: Dict):
        with open(os.path.join(self.path, entry["file"]), "rb") as fh:
            return pickle.load(fh)

    def nondet_after(self, seq: int) -> List[Dict]:
        return [e for e in self.log
                if e.get("type") == "Nondet" and e["seq"] >= seq]


@dataclass
class ReplayResult:
    """Outcome of one replay: where it started, what it compared."""

    bundle: str
    to_seq: int
    checkpoint_index: Optional[int]
    checkpoint_seq: int
    compared: int
    replayed_events: int
    divergence: Optional[Dict] = None
    nondet_mismatches: List[Dict] = field(default_factory=list)
    exit_status: Optional[int] = None
    retired: int = 0

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.nondet_mismatches

    def summary(self) -> str:
        origin = ("from the start" if self.checkpoint_index is None else
                  f"from checkpoint {self.checkpoint_index} "
                  f"(seq {self.checkpoint_seq})")
        verdict = "byte-identical" if self.ok else "DIVERGED"
        return (f"replayed {origin} to seq {self.to_seq}: "
                f"{self.compared} events compared, {verdict}")


def load_bundle(bundle_dir: str) -> Bundle:
    meta_path = os.path.join(bundle_dir, META_FILE)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"{bundle_dir!r} is not a replay bundle (no {META_FILE}); "
            f"record one with RunConfig(record=...) or "
            f"`python -m repro replay --record`")
    import json

    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("version") != REPLAY_BUNDLE_VERSION:
        raise ValueError(f"bundle version {meta.get('version')} != "
                         f"supported {REPLAY_BUNDLE_VERSION}")
    return Bundle(path=bundle_dir, meta=meta,
                  log=load_jsonl(os.path.join(bundle_dir, LOG_FILE)),
                  events=load_jsonl(os.path.join(bundle_dir, EVENTS_FILE)))


class _CollectorSink(Sink):
    """Collects the live semantic event stream as plain records."""

    each_charge = False

    def __init__(self, on_event: Optional[Callable[[Dict], None]] = None):
        self.records: List[Dict] = []
        self.on_event = on_event

    def accept(self, event) -> None:
        record = asdict(event)
        record["type"] = type(event).__name__
        self.records.append(record)
        if self.on_event is not None:
            self.on_event(record)


class _ReplayCursor:
    """``kernel.recorder`` stand-in during replay: takes no checkpoints,
    verifies each nondeterministic draw against the recorded log."""

    def __init__(self, expected: List[Dict]):
        self._expected = list(expected)
        self.mismatches: List[Dict] = []

    def on_round_boundary(self, retired: int) -> None:
        pass

    def on_nondet(self, kind: str, payload: Dict) -> None:
        if not self._expected:
            self.mismatches.append({"want": None,
                                    "got": {"kind": kind, **payload}})
            return
        want = self._expected.pop(0)
        got = {"kind": kind}
        got.update(payload)
        fields = {k: want[k] for k in payload if k in want}
        if want.get("kind") != kind or fields != payload:
            self.mismatches.append({"want": want, "got": got})


def _run_premain(kernel, process, limit: int = 20_000_000) -> int:
    """Execute the fresh machine up to (or just past) the main handoff."""
    total = 0
    while (process.premain_log_len == 0 and not process.exited
           and total < limit):
        retired = kernel.run_process(process,
                                     max_steps=PREMAIN_CHUNK_STEPS)
        total += retired
        if retired == 0:
            break
    return total


def replay_bundle(bundle_dir: str, to_seq: Optional[int] = None,
                  step: Optional[Callable[[Dict], None]] = None,
                  config=None) -> ReplayResult:
    """Replay *bundle_dir* forward to *to_seq* (default: the full run).

    *step* is called with each replayed semantic event record as it is
    collected (the ``--step`` CLI surface).  *config* overrides the
    bundle's recorded RunConfig — callers use this to replay under a
    different engine tier; the semantic stream must not care.
    """
    bundle = load_bundle(bundle_dir)
    final_seq = bundle.final_seq
    if to_seq is None or to_seq > final_seq:
        to_seq = final_seq
    if to_seq < 1:
        raise ValueError(f"--to-seq must be >= 1, got {to_seq}")
    if config is None:
        if "config" not in bundle.meta:
            raise ValueError(f"bundle {bundle_dir!r} has no recorded "
                             f"config; pass one explicitly")
        config = config_from_json(bundle.meta["config"])
    if config.record is not None:
        raise ValueError("replay config must not itself record")

    from repro.runapi import prepare

    prepared = prepare(config)
    kernel = prepared.kernel

    entry = bundle.checkpoint_before(to_seq)
    collector = _CollectorSink(on_event=step)
    if entry is None:
        # No usable checkpoint: replay from the very beginning.  The
        # collector must see premain events too, so attach before spawn.
        anchor = 0
        checkpoint_index = None
        kernel.bus.attach(collector)
        cursor = _ReplayCursor(bundle.nondet_after(0))
        kernel.recorder = cursor
        process = prepared.spawn()
    else:
        anchor = entry["seq"]
        checkpoint_index = entry["index"]
        process = prepared.spawn()
        _run_premain(kernel, process)
        state = bundle.load_checkpoint(entry)
        restore(kernel, state)
        cursor = _ReplayCursor(bundle.nondet_after(anchor))
        kernel.recorder = cursor
        kernel.bus.attach(collector)

    wanted = [canonical_line(r)
              for r in comparable_records(bundle.events, after_seq=anchor)
              if r["seq"] <= to_seq]
    needed = len(wanted)

    retired = 0
    budget = max(config.max_steps * 2, 1_000_000)
    while len(comparable_records(collector.records)) < needed:
        chunk = kernel.run_process(process, max_steps=REPLAY_CHUNK_STEPS)
        retired += chunk
        if chunk == 0 or process.exited or retired >= budget:
            break
    kernel.recorder = None

    got = [canonical_line(r)
           for r in comparable_records(collector.records)][:needed]
    divergence = None
    for index, want in enumerate(wanted):
        have = got[index] if index < len(got) else None
        if have != want:
            divergence = {"index": index, "seq_hint": anchor + 1 + index,
                          "want": want, "got": have}
            break

    return ReplayResult(
        bundle=bundle_dir,
        to_seq=to_seq,
        checkpoint_index=checkpoint_index,
        checkpoint_seq=anchor,
        compared=min(needed, len(got)),
        replayed_events=len(collector.records),
        divergence=divergence,
        nondet_mismatches=list(cursor.mismatches),
        exit_status=process.exit_status,
        retired=retired,
    )


def run_replay(config):
    """``repro.api.run`` path for ``RunConfig(replay_from=...)``: replay
    the whole recorded run (from its last checkpoint) and return a
    :class:`~repro.runapi.RunResult`.  Raises
    :class:`ReplayDivergenceError` when the replayed stream is not
    byte-identical — a determinism bug, not a soft failure."""
    from repro.runapi import RunResult

    bundle = load_bundle(config.replay_from)
    recorded = bundle.meta.get("config")
    if recorded is not None:
        for key in ("mechanism", "workload", "seed"):
            want = recorded.get(key)
            have = getattr(config, key)
            if want != have:
                raise ValueError(
                    f"replay_from mismatch: bundle recorded {key}="
                    f"{want!r}, config says {have!r}")
    result = replay_bundle(config.replay_from)
    if not result.ok:
        raise ReplayDivergenceError(
            f"{result.summary()}; first divergence: {result.divergence}"
            f"{'; nondet mismatches: ' + str(len(result.nondet_mismatches)) if result.nondet_mismatches else ''}")
    return RunResult(
        mechanism=config.mechanism,
        workload=config.workload,
        seed=config.seed,
        exit_status=result.exit_status,
        counters={"replay": {"compared": result.compared,
                             "checkpoint_index": result.checkpoint_index,
                             "checkpoint_seq": result.checkpoint_seq,
                             "retired": result.retired}},
    )
