"""Record/replay determinism property.

One fault-injected syscall-stress run is recorded into a bundle; then:

- replay restored from **every** checkpoint must reproduce the recorded
  event suffix byte-for-byte (canonical JSON, ``seq`` excluded);
- replay from the very start (no checkpoint) must as well;
- the full replay must be byte-identical under **each engine-matrix
  tier** (single-step, no-chain, no-trace-jit, full) —
  the execution engine must never leak into the semantic stream;
- a tampered recorded stream must be *detected* as a divergence — the
  comparison is a tripwire, not a formality.

Any failure here is a determinism bug by construction.
"""

import json
import shutil

import pytest

from repro.api import FaultConfig, RunConfig, build_schedule, run
from repro.replay import SKIP_TYPES, load_bundle, replay_bundle

SEED = 11

#: Engine-tier environment hatches (read at Kernel construction).
ENGINE_MATRIX = {
    "full": {},
    "no-trace-jit": {"REPRO_NO_TRACE_JIT": "1"},
    "no-chain": {"REPRO_NO_CHAIN": "1"},
    "single-step": {"REPRO_NO_BLOCK_CACHE": "1"},
}


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    """Record one fault-injected stress run (shared by every test)."""
    path = tmp_path_factory.mktemp("replay") / "bundle"
    schedule = build_schedule(
        SEED, FaultConfig(errno_rate=0.08, signal_count=3))
    run(RunConfig(mechanism="K23-ultra", workload="stress", seed=SEED,
                  schedule=schedule, params=(("iterations", 150),),
                  record=str(path)))
    return str(path)


@pytest.fixture(scope="module")
def bundle(bundle_dir):
    return load_bundle(bundle_dir)


def test_recording_landed_checkpoints(bundle):
    assert bundle.meta["checkpoints"], \
        "the stress run must land at least one checkpoint"
    assert bundle.final_seq > 0
    seqs = [cp["seq"] for cp in bundle.meta["checkpoints"]]
    assert seqs == sorted(seqs)


def test_replay_from_every_checkpoint_is_byte_identical(bundle_dir, bundle):
    cps = bundle.meta["checkpoints"]
    for i, _cp in enumerate(cps):
        # to_seq lands strictly after checkpoint i and at/before i+1, so
        # checkpoint_before() must pick exactly checkpoint i.
        to_seq = (cps[i + 1]["seq"] if i + 1 < len(cps)
                  else bundle.final_seq)
        result = replay_bundle(bundle_dir, to_seq=to_seq)
        assert result.checkpoint_index == i
        assert result.compared > 0
        assert result.ok, (f"checkpoint {i}: {result.summary()}; "
                           f"{result.divergence}")


def test_replay_from_start_is_byte_identical(bundle_dir, bundle):
    first_cp_seq = bundle.meta["checkpoints"][0]["seq"]
    to_seq = max(1, first_cp_seq - 1)
    result = replay_bundle(bundle_dir, to_seq=to_seq)
    assert result.checkpoint_index is None
    assert result.ok, f"{result.summary()}; {result.divergence}"


@pytest.mark.parametrize("tier", sorted(ENGINE_MATRIX))
def test_full_replay_under_each_engine_tier(bundle_dir, tier, monkeypatch):
    # The bundle was recorded under the full tier stack; the semantic
    # stream must not depend on which execution tier replays it.
    for var, value in ENGINE_MATRIX[tier].items():
        monkeypatch.setenv(var, value)
    result = replay_bundle(bundle_dir)
    assert result.compared > 0
    assert result.ok, f"[{tier}] {result.summary()}; {result.divergence}"


def test_tampered_stream_is_flagged_as_divergence(bundle_dir, bundle,
                                                  tmp_path):
    # Corrupt one comparable recorded event after the last checkpoint;
    # replay must report a divergence at (or before) that record — a
    # silent pass here would mean the comparison can't catch real bugs.
    tampered = tmp_path / "tampered"
    shutil.copytree(bundle_dir, tampered)
    events_path = tampered / "events.jsonl"
    lines = events_path.read_text().splitlines()
    last_cp_seq = bundle.meta["checkpoints"][-1]["seq"]
    victim = None
    for i in range(len(lines) - 1, -1, -1):
        record = json.loads(lines[i])
        if (record.get("type") not in SKIP_TYPES
                and record.get("seq", 0) > last_cp_seq):
            victim = i
            break
    assert victim is not None
    record = json.loads(lines[victim])
    record["tampered"] = True
    lines[victim] = json.dumps(record, sort_keys=True)
    events_path.write_text("\n".join(lines) + "\n")

    result = replay_bundle(str(tampered))
    assert not result.ok
    assert result.divergence is not None
    assert result.divergence["want"] != result.divergence["got"]
