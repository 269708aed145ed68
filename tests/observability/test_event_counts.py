"""Event counts oracle: a sink that reads no event objects ends with
exactly what counting every event object would have given it.

The reference is a :class:`CounterSink` that opts back into event
objects (``each_event = True``), so it counts through the ``accept``
path.  It attaches next to the counting sinks on the same bus, over the
same window, and every snapshot must match it — per-type ``events``
tallies and the ``(phase, nr)`` syscall and hook histograms included.
The guard test then shows that a counting-only bus builds no event
object at all.
"""

import pytest

from repro import runapi
from repro.faultinject.conformance import run_cell
from repro.interposers.hooks import CountingHook, TracingHook, chain
from repro.observability import events as events_module
from repro.observability.events import BusEvent
from repro.observability.export import TraceSink
from repro.observability.sinks import CounterSink
from repro.runapi import RunConfig

MECHANISMS = ("native", "zpoline-ultra", "lazypoline", "K23-ultra", "SUD")
WORKLOADS = {"stress": (("iterations", 40),), "ls": ()}


class ObjectCounter(CounterSink):
    """The reference: counts every event object through ``accept``."""

    each_event = True


class CountingTraceSink(TraceSink):
    """A trace sink that also counts every object it is handed (events
    and each charge), so a traced cell carries its own reference."""

    def __init__(self):
        super().__init__()
        self.reference = ObjectCounter()

    def accept(self, event):
        super().accept(event)
        self.reference.accept(event)


def _run(mechanism, workload, sinks=(), hooked=False):
    """Run one workload with a counting-only CounterSink plus *sinks*."""
    counters = CounterSink()
    prepared = runapi.boot(RunConfig(mechanism, workload, seed=11,
                                     params=WORKLOADS[workload]),
                           [counters, *sinks])
    kernel = prepared.kernel
    if hooked:
        prepared.interposer.hook = chain(TracingHook(bus=kernel.bus),
                                         CountingHook(bus=kernel.bus))
    process = prepared.spawn()
    kernel.run_process(process)
    assert process.exited
    return kernel, counters


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_whole_run_counts_equal_objects(mechanism, workload):
    reference = ObjectCounter()
    kernel, counters = _run(mechanism, workload, sinks=(reference,))
    assert kernel.bus.count_sinks == [counters]
    assert kernel.bus.event_sinks == [reference]
    assert counters.snapshot() == reference.snapshot()
    assert reference.events["SyscallEnter"] > 0
    assert reference.syscalls


def test_hook_histogram():
    reference = ObjectCounter()
    _kernel, counters = _run("K23-ultra", "ls", sinks=(reference,),
                             hooked=True)
    assert reference.hooks["tracing"] == reference.hooks["counting"] > 0
    assert counters.snapshot() == reference.snapshot()


def test_fault_injected_conformance_cell():
    reference = ObjectCounter()
    observation = run_cell("K23-ultra", "stress", 3, trace_sink=reference)
    assert observation.injections
    assert observation.counters["events"]["FaultInjected"] > 0
    assert observation.counters == reference.snapshot()


def test_attach_and_detach_windows_mid_run():
    """Counting sinks listen over windows of one run, as calibration
    does; the bus goes back to building nothing between windows."""
    prepared = runapi.boot(RunConfig("K23-ultra", "stress", seed=11,
                                     params=(("iterations", 400),)))
    kernel, process = prepared.kernel, prepared.spawn()
    pairs = []
    for _ in range(3):
        kernel.run_process(process, max_steps=800)
        pair = (CounterSink(), ObjectCounter())
        for sink in pair:
            kernel.bus.attach(sink)
        kernel.run_process(process, max_steps=1200)
        for sink in pair:
            kernel.bus.detach(sink)
        pairs.append(pair)
    assert not kernel.bus.enabled
    assert kernel.bus.counts is None
    kernel.run_process(process)
    assert process.exited
    for counts, reference in pairs:
        assert reference.events["SyscallEnter"] > 0
        assert counts.snapshot() == reference.snapshot()


def test_trace_sink_riding_along_changes_no_counter():
    plain = run_cell("zpoline-ultra", "stress", 2)
    traced_sink = CountingTraceSink()
    traced = run_cell("zpoline-ultra", "stress", 2, trace_sink=traced_sink)
    assert traced_sink.trace_events
    assert traced.counters == plain.counters
    assert traced.counters == traced_sink.reference.snapshot()


def test_counting_only_bus_builds_no_event_object(monkeypatch):
    reference = ObjectCounter()
    expected = run_cell("K23-ultra", "stress", 3, trace_sink=reference)
    assert expected.counters == reference.snapshot()

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    classes = [cls for cls in vars(events_module).values()
               if isinstance(cls, type) and issubclass(cls, BusEvent)]
    assert len(classes) == len(events_module.EVENT_TYPES) + 1
    for cls in classes:
        monkeypatch.setattr(cls, "__init__", refuse)
    observation = run_cell("K23-ultra", "stress", 3)
    assert observation == expected
    assert observation.counters == reference.snapshot()
