"""Charge totals oracle: a sink that takes cycle charges as running
totals ends with exactly what per-charge delivery would have given it.

The reference is a :class:`CounterSink` that opts back into one event
per charge (``each_charge = True``), so it counts through the ``accept``
path.  It attaches next to the totals sinks on the same bus, over the
same window, and every snapshot must match it — ``events`` tallies,
zero-valued keys and the JSONL ``ChargeSummary`` line included.
"""

import io
import json

import pytest

from repro import runapi
from repro.cpu import cycles as cycles_module
from repro.observability.export import TraceSink
from repro.observability.sinks import (CounterSink, NullSink, RingBufferSink,
                                       StreamingJSONLSink)
from repro.runapi import RunConfig

MECHANISMS = ("native", "zpoline-default", "lazypoline", "K23-ultra", "SUD")
WORKLOADS = {"stress": (("iterations", 40),), "ls": ()}


class EachChargeCounter(CounterSink):
    """The reference: counts every charge event through ``accept``."""

    each_charge = True


def _lines(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def _summary_of_each_charge_stream(stream):
    """The ChargeSummary cycles a totals sink must write, summed from a
    stream that carried every charge as its own record."""
    cycles = {}
    for record in _lines(stream):
        if record["type"] == "CycleCharge":
            key = record["event"]
        elif record["type"] == "RawCycles":
            key = f"raw:{record['label']}"
        else:
            continue
        cycles[key] = cycles.get(key, 0) + record["cycles"]
    return dict(sorted(cycles.items()))


def _charge_summary(stream):
    summaries = [r for r in _lines(stream) if r["type"] == "ChargeSummary"]
    assert len(summaries) == 1
    return summaries[0]["cycles"]


def _booted(mechanism="K23-ultra", workload="stress"):
    """A spawned, unstarted process on a sink-free kernel; stress runs
    long enough (about 7k instructions) for several windows."""
    params = (("iterations", 400),) if workload == "stress" else ()
    prepared = runapi.boot(RunConfig(mechanism, workload, seed=11,
                                     params=params))
    return prepared.kernel, prepared.spawn()


@pytest.mark.parametrize("block_cache", (True, False),
                         ids=("block-cache", "single-step"))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_whole_run_totals_equal_each_charge(mechanism, workload,
                                            block_cache):
    reference = EachChargeCounter()
    totals_stream, each_stream = io.StringIO(), io.StringIO()
    totals_jsonl = StreamingJSONLSink(totals_stream)
    each_jsonl = StreamingJSONLSink(each_stream, include_charges=True)
    prepared = runapi.prepare(RunConfig(
        mechanism, workload, seed=11, params=WORKLOADS[workload],
        block_cache=block_cache,
        sinks=(reference, totals_jsonl, each_jsonl)))
    result = prepared.execute()
    assert result.ok
    assert prepared.counters.snapshot() == reference.snapshot()
    assert reference.events["CycleCharge"] > 0
    totals_jsonl.close()
    each_jsonl.close()
    assert _charge_summary(totals_stream) == \
        _summary_of_each_charge_stream(each_stream)
    assert prepared.counters.total_cycles == prepared.kernel.cycles.cycles


def test_fault_injected_conformance_cell():
    from repro.faultinject.conformance import run_cell

    reference = EachChargeCounter()
    observation = run_cell("K23-ultra", "stress", 3, trace_sink=reference)
    assert observation.injections
    assert observation.counters == reference.snapshot()


def test_attach_and_detach_windows_mid_run():
    """The calibration pattern: sinks listen over windows of one run."""
    kernel, process = _booted()
    pairs = []
    for _ in range(3):
        kernel.run_process(process, max_steps=800)
        pair = (CounterSink(), EachChargeCounter())
        for sink in pair:
            kernel.bus.attach(sink)
        kernel.run_process(process, max_steps=1200)
        for sink in pair:
            kernel.bus.detach(sink)
        pairs.append(pair)
    assert not kernel.bus.enabled
    kernel.run_process(process)
    assert process.exited
    for totals, reference in pairs:
        assert reference.events["CycleCharge"] > 0
        assert totals.snapshot() == reference.snapshot()


def test_detach_then_reattach():
    kernel, process = _booted("zpoline-default")
    totals, reference = CounterSink(), EachChargeCounter()
    for _ in range(2):
        kernel.bus.attach(totals)
        kernel.bus.attach(reference)
        kernel.run_process(process, max_steps=1500)
        kernel.bus.detach(totals)
        kernel.bus.detach(reference)
        kernel.run_process(process, max_steps=1500)
    kernel.run_process(process)
    assert totals.snapshot() == reference.snapshot()


def test_two_totals_sinks_attached_at_different_times():
    """The later sink must not see charges made before it attached, and
    reading one sink mid-run must not disturb the other."""
    kernel, process = _booted("lazypoline")
    early, early_reference = CounterSink(), EachChargeCounter()
    kernel.bus.attach(early)
    kernel.bus.attach(early_reference)
    kernel.run_process(process, max_steps=2000)
    late, late_reference = CounterSink(), EachChargeCounter()
    kernel.bus.attach(late)
    kernel.bus.attach(late_reference)
    kernel.run_process(process, max_steps=2000)
    assert late.snapshot() == late_reference.snapshot()
    kernel.run_process(process)
    assert process.exited
    assert early.snapshot() == early_reference.snapshot()
    assert late.snapshot() == late_reference.snapshot()
    assert early.total_cycles == kernel.cycles.cycles
    assert late.total_cycles < early.total_cycles


def test_trace_sink_riding_along():
    kernel, process = _booted("SUD", "ls")
    trace = TraceSink(mechanism="SUD", workload="ls")
    totals, reference = CounterSink(), EachChargeCounter()
    for sink in (totals, trace, reference):
        kernel.bus.attach(sink)
    kernel.run_process(process)
    assert totals.snapshot() == reference.snapshot()
    assert trace._charge_counts == {
        **reference.charge_counts,
        **{f"raw:{label}": n for label, n in reference.raw_counts.items()}}


# ----------------------------------------------------- no charge objects


@pytest.fixture
def charge_events_forbidden(monkeypatch):
    def forbidden(**fields):
        raise AssertionError(f"charge event built: {fields}")

    monkeypatch.setattr(cycles_module, "CycleCharge", forbidden)
    monkeypatch.setattr(cycles_module, "RawCycles", forbidden)


def test_conformance_cell_builds_no_charge_event(charge_events_forbidden):
    from repro.faultinject.conformance import run_cell

    observation = run_cell("K23-ultra", "stress", 3,
                           trace_sink=RingBufferSink(capacity=64))
    assert observation.counters["events"]["CycleCharge"] > 0


def test_metrics_run_builds_no_charge_event(charge_events_forbidden):
    from repro.evaluation.breakdown import _counts_for
    from repro.observability.analyzers import LatencyAnalyzer

    sink, total = _counts_for("lazypoline", 20, 99,
                              extra_sinks=(LatencyAnalyzer(), NullSink()))
    assert sink.total_cycles == total


def test_calibration_builds_no_charge_event(charge_events_forbidden):
    from repro.traffic.config import TrafficConfig
    from repro.traffic.fleet import calibrate_service_table

    traffic = TrafficConfig(requests=16, calibration_requests=8)
    table = calibrate_service_table("K23-ultra", "nginx", traffic, 9171)
    assert all(row["cycles"] > 0 for row in table["kinds"].values())
