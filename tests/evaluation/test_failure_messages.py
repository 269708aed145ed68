"""A failed measurement run names what to rerun: the mechanism, the
workload, the seed and the run-length parameter (iterations, requests,
or the request kind of a calibration drive)."""

import dataclasses

import pytest

from repro.evaluation import breakdown, runner
from repro.runapi import RunResult
from repro.traffic import fleet
from repro.traffic.config import TrafficConfig
from repro.workloads.clients import KeepAliveSource

SEED = 4242
TRAFFIC = TrafficConfig(requests=16, calibration_requests=8)
FIRST_KIND = sorted({key.rsplit(":", 1)[-1] for key, _ in TRAFFIC.mix})[0]


def _fail_every_run(monkeypatch):
    monkeypatch.setattr(RunResult, "ok", property(lambda self: False))


def _fail_every_drive(monkeypatch):
    drive = KeepAliveSource.drive

    def failing_drive(self, requests):
        return dataclasses.replace(drive(self, requests), failures=1)

    monkeypatch.setattr(KeepAliveSource, "drive", failing_drive)


def _garble_every_response(monkeypatch):
    monkeypatch.setattr(fleet, "response_length", lambda *args: -1)


CASES = {
    "decomposition": (
        _fail_every_run,
        lambda: breakdown._counts_for("native", 8, SEED),
        ("native", "stress", f"seed={SEED}", "iterations=8")),
    "batch": (
        _fail_every_run,
        lambda: runner._micro_total_cycles("zpoline-default", 8, SEED),
        ("zpoline-default", "stress", f"seed={SEED}", "iterations=8")),
    "throughput": (
        _fail_every_drive,
        lambda: runner._measure_throughput_cpr(
            dataclasses.replace(runner.MACRO_BY_KEY["redis-1t"],
                                requests=4), "native", SEED),
        ("native", "redis", f"seed={SEED}", "requests=4")),
    "calibration": (
        _garble_every_response,
        lambda: fleet.calibrate_service_table("native", "nginx", TRAFFIC,
                                              SEED),
        ("native", "nginx", f"seed={SEED}", f"a {FIRST_KIND} request")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_failure_names_mechanism_workload_seed_and_length(case,
                                                          monkeypatch):
    force, run, fragments = CASES[case]
    force(monkeypatch)
    with pytest.raises(RuntimeError) as excinfo:
        run()
    message = str(excinfo.value)
    for fragment in fragments:
        assert fragment in message, (fragment, message)
