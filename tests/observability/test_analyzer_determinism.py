"""Replay determinism: forensics graded from a recorded event stream are
byte-identical to forensics graded live.

The same seeded pitfall run is observed two ways — an AnalyzerSuite
attached to the bus during execution, and a RingBufferSink flight
recorder whose captured events are replayed through a *fresh* suite
afterwards.  The JSON-serialized verdicts and latency snapshots must
match byte for byte, in both interpreter modes.  This is what makes the
analyzers *stream* analyzers: nothing they conclude depends on ambient
kernel state, only on the events.
"""

import json

import pytest

from repro.observability.analyzers import default_suite
from repro.observability.sinks import RingBufferSink
from repro.pitfalls.poc import (K23_KIT, LAZYPOLINE_KIT, PITFALL_SETUPS,
                                ZPOLINE_KIT, evaluate_pitfall)

PITFALLS = tuple(PITFALL_SETUPS)  # every streamed pitfall (P4b excluded)
KITS = {"zpoline": ZPOLINE_KIT, "lazypoline": LAZYPOLINE_KIT, "K23": K23_KIT}


def _seeded_run(pitfall, kit, block_cache):
    """One PoC run with both observers attached; returns
    (live suite, recorded events)."""
    setup = PITFALL_SETUPS[pitfall]
    kernel, _interposer = kit.build(setup.register,
                                    offline_paths=setup.offline_paths)
    kernel.block_cache_enabled = block_cache
    live = default_suite()
    recorder = RingBufferSink(capacity=400_000, keep_charges=True)
    kernel.bus.attach(live)
    kernel.bus.attach(recorder)
    if setup.pre_run is not None:
        setup.pre_run(kernel)
    process = kernel.spawn_process(setup.path)
    kernel.run_process(process, max_steps=3_000_000)
    assert recorder.dropped == 0, "flight recorder overflowed"
    return live, recorder.events()


def _canonical(suite):
    return json.dumps(suite.report(), sort_keys=True)


@pytest.mark.parametrize("block_cache", (True, False),
                         ids=("block-cache", "single-step"))
@pytest.mark.parametrize("kit", sorted(KITS))
def test_replay_matches_live(kit, block_cache):
    live, events = _seeded_run("P5", KITS[kit], block_cache)
    replayed = default_suite()
    replayed.replay(events)
    assert _canonical(replayed) == _canonical(live)


@pytest.mark.parametrize("pitfall", PITFALLS)
def test_replay_matches_live_every_pitfall(pitfall):
    """Every analyzer's verdict is a pure function of the stream — the
    recorded charges (kept by the flight recorder) are dropped by
    ``accept`` and change nothing."""
    live, events = _seeded_run(pitfall, ZPOLINE_KIT, True)
    replayed = default_suite()
    replayed.replay(events)
    assert _canonical(replayed) == _canonical(live)


@pytest.mark.parametrize("mode", ("block-cache", "single-step"))
def test_evaluator_verdicts_stable_across_modes(mode, monkeypatch):
    """The public evaluator's streamed verdicts agree with its handled
    bit in both interpreter modes (the analyzer is the single source of
    truth for the Table 3 cell)."""
    if mode == "single-step":
        monkeypatch.setenv("REPRO_NO_BLOCK_CACHE", "1")
    else:
        monkeypatch.delenv("REPRO_NO_BLOCK_CACHE", raising=False)
    for pitfall in PITFALLS:
        outcome = evaluate_pitfall(pitfall, LAZYPOLINE_KIT)
        assert outcome.verdict is not None
        assert outcome.handled == (not outcome.verdict.detected)
        assert outcome.evidence == outcome.verdict.reason
        assert outcome.verdict.pitfall == pitfall
