"""Bus + sink unit tests: enable/disable fast path, counter fidelity, ring
buffer semantics, JSONL streaming, and the exporter's clock constant."""

import collections
import io
import json

import pytest

from repro.cpu.cycles import CLOCK_HZ as MODEL_CLOCK_HZ
from repro.kernel import Kernel
from repro.observability.bus import Bus
from repro.observability.events import (CycleCharge, QuantumEnd, RawCycles,
                                        SyscallEnter)
from repro.observability.export import CLOCK_HZ as EXPORT_CLOCK_HZ
from repro.observability.export import TraceSink
from repro.observability.sinks import (JSONL_SCHEMA_VERSION, CounterSink,
                                       NullSink, RingBufferSink,
                                       StreamingJSONLSink)
from repro.workloads.stress import STRESS_PATH, build_stress


def _stress_kernel(iterations=30):
    kernel = Kernel(seed=777, aslr=False)
    kernel.torn_window_probability = 0.0
    build_stress(iterations).register(kernel)
    return kernel


class TestBus:
    def test_disabled_until_a_sink_attaches(self):
        bus = Bus()
        assert not bus.enabled
        sink = NullSink()
        bus.attach(sink)
        assert bus.enabled
        bus.detach(sink)
        assert not bus.enabled

    def test_emit_reaches_every_sink(self):
        bus = Bus()
        a, b = CounterSink(), CounterSink()
        bus.attach(a)
        bus.attach(b)
        bus.emit(QuantumEnd, ts=1, pid=1, tid=0)
        assert a.events["QuantumEnd"] == 1
        assert b.events["QuantumEnd"] == 1

    def test_kernel_bus_is_wired_to_the_cycle_model(self):
        kernel = Kernel(seed=1)
        assert kernel.cycles.bus is kernel.bus


class _AcceptOnly:
    """A user sink with nothing but ``accept``: takes each charge."""

    def __init__(self):
        self.seen = []

    def accept(self, event):
        self.seen.append(event)


def _charges_of_events(events):
    """(per-event-value charged times, every charged cycle) of a stream
    that carried each charge as its own event."""
    counts = collections.Counter()
    cycles = 0
    for event in events:
        if isinstance(event, CycleCharge):
            counts[event.event] += event.times
            cycles += event.cycles
        elif isinstance(event, RawCycles):
            cycles += event.cycles
    return counts, cycles


def _jsonl_charges(sink):
    counts = collections.Counter()
    cycles = 0
    for record in map(json.loads, sink.stream.getvalue().splitlines()):
        if record["type"] == "CycleCharge":
            counts[record["event"]] += record["times"]
        if record["type"] in ("CycleCharge", "RawCycles"):
            cycles += record["cycles"]
    return counts, cycles


def _trace_charges(sink):
    counts = {key: n for key, n in sink._charge_counts.items()
              if not key.startswith("raw:")}
    return counts, sink._cycles_seen


#: Sink kinds → (factory, reader of (charged times by event value, total
#: charged cycles)).  The first kind counts totals; the rest take each
#: charge as an event.
SINK_KINDS = {
    "counter": (CounterSink,
                lambda s: (s.charge_counts, s.total_cycles)),
    "trace": (TraceSink, _trace_charges),
    "ring-keep-charges": (
        lambda: RingBufferSink(capacity=1_000_000, keep_charges=True),
        lambda s: _charges_of_events(s.events())),
    "jsonl-include-charges": (
        lambda: StreamingJSONLSink(io.StringIO(), include_charges=True),
        _jsonl_charges),
    "accept-only": (_AcceptOnly, lambda s: _charges_of_events(s.seen)),
}


class TestCounterSink:
    @pytest.mark.parametrize("kind", sorted(SINK_KINDS))
    def test_counters_mirror_the_cycle_model(self, kind):
        make, read = SINK_KINDS[kind]
        kernel = _stress_kernel()
        sink = make()
        kernel.bus.attach(sink)
        process = kernel.spawn_process(STRESS_PATH)
        kernel.run_process(process, max_steps=2_000_000)
        assert process.exited and process.exit_status == 0
        counts, cycles = read(sink)
        model = kernel.cycles.snapshot()
        for event, count in model.items():
            assert counts.get(event.value, 0) == count, event
        # Every accumulated cycle is attributed — modelled + raw.
        assert cycles == kernel.cycles.cycles

    def test_snapshot_is_json_ready(self):
        kernel = _stress_kernel(10)
        sink = CounterSink()
        kernel.bus.attach(sink)
        process = kernel.spawn_process(STRESS_PATH)
        kernel.run_process(process, max_steps=2_000_000)
        snap = sink.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["total_cycles"] == sink.total_cycles
        assert any(key.startswith("app:") or ":" in key
                   for key in snap["syscalls"])


class TestRingBufferSink:
    def test_capacity_and_dropped_accounting(self):
        sink = RingBufferSink(capacity=4)
        for i in range(10):
            sink.accept(QuantumEnd(ts=i, pid=1, tid=0))
        assert len(sink.events()) == 4
        assert sink.dropped == 6
        assert sink.events()[-1].ts == 9

    def test_charges_excluded_by_default(self):
        sink = RingBufferSink(capacity=8)
        sink.accept(CycleCharge(ts=0, pid=0, tid=0, event="instruction",
                                times=1, cycles=1))
        sink.accept(SyscallEnter(ts=1, pid=1, tid=0, nr=39, site=0,
                                 phase="app"))
        kept = sink.events()
        assert len(kept) == 1 and isinstance(kept[0], SyscallEnter)


class TestStreamingJSONL:
    def test_lines_parse_and_charges_summarize(self):
        stream = io.StringIO()
        sink = StreamingJSONLSink(stream)
        sink.accept(SyscallEnter(ts=1, pid=1, tid=0, nr=39, site=0,
                                 phase="app"))
        sink.accept(CycleCharge(ts=2, pid=0, tid=0, event="instruction",
                                times=3, cycles=3))
        summary = sink.close()
        lines = [json.loads(line) for line in
                 stream.getvalue().splitlines()]
        assert lines[0]["type"] == "TraceMeta"
        assert lines[0]["schema_version"] == JSONL_SCHEMA_VERSION
        assert lines[1]["type"] == "SyscallEnter" and lines[1]["nr"] == 39
        assert lines[-1]["type"] == "ChargeSummary"
        assert [line["seq"] for line in lines] == list(range(len(lines)))
        assert summary == {"instruction": 3}


def test_export_clock_matches_the_cycle_model():
    """export.py keeps a local copy of CLOCK_HZ (it cannot import the cycle
    model — circular); this pins the two together."""
    assert EXPORT_CLOCK_HZ == MODEL_CLOCK_HZ
