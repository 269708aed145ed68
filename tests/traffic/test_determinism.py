"""The headline guarantee: one seed, one report — byte for byte.

Across engine tiers and repeated runs, for both serve modes; the
``--jobs`` shard counts are an axis of ``tests/invariance``, which runs
the CLI in both serve modes.  These drive real kernels (calibration at
minimum), so configs are kept small; the 10^6-request scale is the
CLI's job.
"""

import os

import pytest

import repro.traffic.fleet as fleet
from repro.traffic.config import TrafficConfig
from repro.traffic.engine import run_loadtest
from repro.traffic.schedule import generate_schedule

TIER_HATCHES = ("REPRO_NO_BLOCK_CACHE", "REPRO_NO_CHAIN",
                "REPRO_NO_TRACE_JIT")


def model_config(**kwargs):
    defaults = dict(requests=1200, servers=3, connections=48,
                    calibration_requests=12, workers=2, ramp=(1, 2, 8))
    defaults.update(kwargs)
    return TrafficConfig(**defaults)


def full_config(**kwargs):
    defaults = dict(requests=150, servers=2, connections=12,
                    calibration_requests=10, workers=2, ramp=(1, 4),
                    serve_mode="full")
    defaults.update(kwargs)
    return TrafficConfig(**defaults)


@pytest.fixture(autouse=True)
def fresh_calibration():
    """Each test measures its own service tables — cached tables from a
    different engine configuration would mask a tier-variance bug."""
    fleet._CALIBRATION_CACHE.clear()
    yield
    fleet._CALIBRATION_CACHE.clear()


def report_json(traffic, jobs=1, mechanisms=("native",), workload="redis",
                seed=23):
    return run_loadtest(list(mechanisms), workload, traffic, seed=seed,
                        jobs=jobs).to_json()


def test_model_mode_engine_tier_invariant():
    baseline = report_json(model_config())
    for hatch in TIER_HATCHES:
        fleet._CALIBRATION_CACHE.clear()
        os.environ[hatch] = "1"
        try:
            assert report_json(model_config()) == baseline, \
                f"{hatch}=1 perturbed the SLO report"
        finally:
            del os.environ[hatch]


def test_full_mode_reference_tier_invariant():
    """Full-serve mode retires every request on real kernels; the
    reference single-step interpreter must produce the same bytes."""
    baseline = report_json(full_config())
    fleet._CALIBRATION_CACHE.clear()
    os.environ["REPRO_NO_BLOCK_CACHE"] = "1"
    try:
        assert report_json(full_config()) == baseline
    finally:
        del os.environ["REPRO_NO_BLOCK_CACHE"]


def test_seed_changes_schedule_and_report():
    assert report_json(model_config(), seed=23) != \
        report_json(model_config(), seed=24)


def test_mechanisms_share_one_schedule():
    """Auto-rate resolution uses only the native calibration, so every
    mechanism is graded against the identical arrival schedule."""
    report = run_loadtest(["native", "zpoline-default"], "redis",
                          model_config(), seed=31)
    digest = report.doc["schedule"]["digest"]
    assert digest  # one digest, echoed once — shared by construction
    totals = [s["totals"]["offered"]
              for s in report.doc["mechanisms"].values()]
    assert totals[0] == totals[1] == 1200


def test_runconfig_traffic_roundtrip():
    from repro.runapi import RunConfig, run

    result = run(RunConfig(mechanism="native", workload="redis", seed=23,
                           traffic=model_config()))
    assert result.slo is not None
    assert result.requests == result.slo.total_completed()
    assert result.ok


@pytest.mark.parametrize("make", [model_config, full_config])
def test_shared_schedule_unchanged_by_a_run(make):
    """``generate_schedule`` is memoised per process: every mechanism cell
    and the merge share one schedule, so no consumer may mutate it."""
    traffic = make(rate=40_000, spans=True)
    generate_schedule.cache_clear()
    schedule = generate_schedule(traffic, 23)
    before = schedule.digest()
    run_loadtest(["native", "zpoline-default"], "redis", traffic, seed=23)
    assert generate_schedule(traffic, 23) is schedule
    assert schedule.digest() == before
    assert generate_schedule.cache_info().misses == 1


def pid_log(path):
    """``(record, drain)`` over a log of pids at *path*: ``record()``
    appends this process's pid (forked workers included), ``drain()``
    returns the pids logged since its last call."""
    path.touch()

    def record():
        with open(path, "a") as out:
            out.write(f"{os.getpid()}\n")

    def drain():
        pids = [int(line) for line in path.read_text().split()]
        path.write_text("")
        return pids

    return record, drain


@pytest.fixture
def schedule_builds(monkeypatch, tmp_path):
    """Record the pid of every arrival-schedule build (a memo miss of
    ``generate_schedule``), forked workers included — the patch is
    inherited across fork — starting from an empty memo.  Each call
    returns the pids logged since the last one."""
    import repro.traffic.schedule as schedule_mod

    record, drain = pid_log(tmp_path / "schedule-builds")
    real = schedule_mod.ArrivalSchedule

    def recorded(**fields):
        record()
        return real(**fields)

    monkeypatch.setattr(schedule_mod, "ArrivalSchedule", recorded)
    generate_schedule.cache_clear()
    yield drain
    generate_schedule.cache_clear()


def test_one_schedule_build_per_run(schedule_builds, tmp_path):
    """The parent builds the schedule before the pool forks, so a
    ``--jobs 2`` run draws it once in all — no worker redraws it, and
    neither does the merge — and a fully cached rerun draws it once."""
    from repro.evaluation.cache import ResultCache

    traffic = model_config(rate=40_000)
    serial = report_json(traffic, jobs=1)
    assert schedule_builds() == [os.getpid()]

    generate_schedule.cache_clear()
    fleet._CALIBRATION_CACHE.clear()
    cache = ResultCache(tmp_path / "cache")
    report = run_loadtest(["native"], "redis", traffic, seed=23, jobs=2,
                          cache=cache)
    assert report.stats.mode == "parallel"
    assert report.to_json() == serial
    assert schedule_builds() == [os.getpid()]

    generate_schedule.cache_clear()
    rerun = run_loadtest(["native"], "redis", traffic, seed=23, jobs=2,
                         cache=cache)
    assert rerun.stats.hits == rerun.stats.cells == 2
    assert rerun.to_json() == serial
    assert schedule_builds() == [os.getpid()]


def test_one_key_column_per_run(monkeypatch, tmp_path):
    """The parent computes the model fabric's key column with the
    schedule, before the pool forks: the workers inherit it with the
    memoised schedule, so a ``--jobs 2`` run builds it once in all."""
    import repro.traffic.schedule as schedule_mod

    record, drain = pid_log(tmp_path / "key-builds")
    real = schedule_mod.request_keys

    def recorded(schedule):
        record()
        return real(schedule)

    monkeypatch.setattr(schedule_mod, "request_keys", recorded)
    traffic = model_config(rate=40_000)
    generate_schedule.cache_clear()
    serial = report_json(traffic, jobs=1)
    assert drain() == [os.getpid()]

    generate_schedule.cache_clear()
    fleet._CALIBRATION_CACHE.clear()
    report = run_loadtest(["native"], "redis", traffic, seed=23, jobs=2)
    assert report.stats.mode == "parallel"
    assert report.to_json() == serial
    assert drain() == [os.getpid()]
    generate_schedule.cache_clear()


def test_parent_calibrates_mechanisms_shared_by_shards(monkeypatch,
                                                       tmp_path):
    """Every shard of a mechanism needs its calibration.  The parent runs
    each one before the pool forks, so a ``--jobs 2`` run boots one
    calibration kernel per mechanism, in the parent, and reports the
    bytes of a ``--jobs 1`` run."""
    from repro import runapi

    record, drain = pid_log(tmp_path / "boots")
    real = runapi.boot

    def recorded(*args, **kwargs):
        record()
        return real(*args, **kwargs)

    monkeypatch.setattr(runapi, "boot", recorded)
    traffic = TrafficConfig(requests=10_000, rate=40_000)
    mechanisms = ("SUD", "K23-ultra")
    serial = report_json(traffic, jobs=1, mechanisms=mechanisms)
    assert drain() == [os.getpid()] * 2

    fleet._CALIBRATION_CACHE.clear()
    report = run_loadtest(list(mechanisms), "redis", traffic, seed=23,
                          jobs=2)
    assert report.stats.mode == "parallel"
    assert report.to_json() == serial
    assert drain() == [os.getpid()] * 2


def test_calibration_memo_keys_on_cost_model(monkeypatch):
    """A cost patched in-process re-keys every pipeline cell; the
    calibration memo must miss for every mechanism too, or a re-run cell
    would read back the unpatched service table."""
    from repro.cpu.cycles import DEFAULT_COSTS, Event
    from repro.traffic.fleet import calibrate_service_table

    traffic = model_config()
    native = calibrate_service_table("native", "redis", traffic, 23)
    ultra = calibrate_service_table("K23-ultra", "redis", traffic, 23)
    assert calibrate_service_table("K23-ultra", "redis", traffic,
                                   23) is ultra
    monkeypatch.setitem(DEFAULT_COSTS, Event.HASHSET_CHECK,
                        DEFAULT_COSTS[Event.HASHSET_CHECK] * 50)
    patched = calibrate_service_table("K23-ultra", "redis", traffic, 23)
    assert patched is not ultra
    for kind, row in patched["kinds"].items():
        assert row["cycles"] > ultra["kinds"][kind]["cycles"], kind
    recalibrated = calibrate_service_table("native", "redis", traffic, 23)
    assert recalibrated is not native
    assert recalibrated == native  # native never charges HASHSET_CHECK
