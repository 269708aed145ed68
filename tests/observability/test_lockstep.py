"""The lockstep property: tracing and forensics are observe-only.

Running any workload with the bus fully instrumented (TraceSink +
CounterSink + RingBufferSink + the full pitfall/latency AnalyzerSuite)
must not change a single application-observable fact vs the same run
with the bus disabled: retired instruction count, exit status, output
bytes, final cycle counter, or a conformance cell's verdict — in every
engine tier.  Diagnosis can never mask the bug it diagnoses.
"""

import pytest

from repro.kernel import Kernel
from repro.observability.analyzers import default_suite
from repro.observability.export import TraceSink
from repro.observability.sinks import CounterSink, RingBufferSink
from repro.workloads.stress import STRESS_PATH, build_stress
from tests.simutil import TIERS, select_tier

MECHANISMS = ("native", "SUD", "zpoline-default", "lazypoline")


def _run(mechanism: str, traced: bool):
    from repro.interposers.registry import REGISTRY

    kernel = Kernel(seed=777, aslr=False)
    kernel.torn_window_probability = 0.0
    sinks = None
    if traced:
        sinks = (TraceSink(mechanism=mechanism, workload="stress"),
                 CounterSink(), RingBufferSink(capacity=2048),
                 default_suite())
        for sink in sinks:
            kernel.bus.attach(sink)
    build_stress(40).register(kernel)
    REGISTRY.create(mechanism, kernel)
    process = kernel.spawn_process(STRESS_PATH)
    retired = kernel.run_process(process, max_steps=5_000_000)
    assert process.exited
    return {
        "retired": retired,
        "exit_status": process.exit_status,
        "output": bytes(process.output),
        "cycles": kernel.cycles.cycles,
        "syscalls": len(kernel.syscall_log),
    }


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_tracing_changes_nothing(mechanism, tier, monkeypatch):
    select_tier(monkeypatch, tier)
    plain = _run(mechanism, traced=False)
    traced = _run(mechanism, traced=True)
    assert traced == plain


@pytest.mark.parametrize("tier", TIERS)
def test_conformance_verdict_identical_with_tracing(tier, monkeypatch):
    """A conformance cell's full Observation — the thing verdicts are made
    of — is identical with a TraceSink riding along."""
    from repro.faultinject.conformance import run_cell

    select_tier(monkeypatch, tier)
    plain = run_cell("SUD", "stress", 1)
    sink = TraceSink(mechanism="SUD", workload="stress")
    traced = run_cell("SUD", "stress", 1, trace_sink=sink)
    assert traced == plain
    assert sink.trace_events  # the sink really did observe the run
