"""The redesigned ``repro.api`` run surface: RunConfig → run → RunResult."""

import dataclasses

import pytest

from repro.api import (AnalyzerSuite, FaultSchedule, LatencyAnalyzer,
                       PitfallVerdict, RunConfig, RunResult, build_schedule,
                       prepare, run)


class TestRunConfigValidation:
    def test_mechanism_canonicalized_case_insensitively(self):
        assert RunConfig("k23-ultra", "stress").mechanism == "K23-ultra"
        assert RunConfig("LAZYPOLINE", "nginx").mechanism == "lazypoline"

    def test_unknown_mechanism_lists_valid_names(self):
        with pytest.raises(ValueError, match="native"):
            RunConfig("frobnicator", "stress")

    def test_unknown_workload_lists_valid_names(self):
        with pytest.raises(ValueError, match="stress"):
            RunConfig("native", "quake")

    def test_seed_must_be_a_non_negative_int(self):
        for bad in (-1, 1.5, "7", True):
            with pytest.raises(ValueError, match="seed"):
                RunConfig("native", "stress", seed=bad)

    def test_schedule_must_be_a_fault_schedule(self):
        with pytest.raises(ValueError, match="FaultSchedule"):
            RunConfig("native", "stress", schedule=42)
        config = RunConfig("native", "stress",
                           schedule=build_schedule(3))
        assert isinstance(config.schedule, FaultSchedule)

    def test_request_and_connection_bounds(self):
        with pytest.raises(ValueError, match="requests"):
            RunConfig("native", "nginx", requests=0)
        with pytest.raises(ValueError, match="connections"):
            RunConfig("native", "nginx", connections=0)

    def test_params_sorted_and_hashable(self):
        config = RunConfig("native", "nginx",
                           params=[("workers", 2), ("file_kb", 4)])
        assert config.params == (("file_kb", 4), ("workers", 2))
        hash(config)


class TestRunConfigRoundTrip:
    def test_replace_round_trips_equal(self):
        config = RunConfig("zpoline-ultra", "redis", seed=5,
                           params=(("io_threads", 1),))
        again = dataclasses.replace(config)
        assert again == config
        assert hash(again) == hash(config)

    def test_field_dict_reconstructs_the_config(self):
        config = RunConfig("K23-ultra", "nginx", seed=7, requests=8)
        fields = {f.name: getattr(config, f.name)
                  for f in dataclasses.fields(config)}
        assert RunConfig(**fields) == config

    def test_canonicalization_is_idempotent(self):
        lower = RunConfig("k23-ultra", "stress")
        canonical = RunConfig("K23-ultra", "stress")
        assert lower == canonical


class TestRun:
    def test_batch_run_result_shape(self):
        result = run(RunConfig("zpoline-default", "stress", seed=3,
                               params=(("iterations", 10),)))
        assert isinstance(result, RunResult)
        assert result.exit_status == 0
        assert result.ok
        assert result.cycles > 0
        assert result.counters["total_cycles"] > 0
        assert result.mechanism == "zpoline-default"

    def test_server_run_result_shape(self):
        result = run(RunConfig("lazypoline", "redis", seed=5, requests=6))
        assert result.exit_status is None
        assert result.requests == 6
        assert result.failures == 0
        assert result.ok

    def test_analyzers_become_verdicts(self):
        from repro.observability.analyzers import analyzer_for

        result = run(RunConfig("zpoline-default", "stress", seed=3,
                               params=(("iterations", 10),),
                               analyzers=(analyzer_for("P1a"),)))
        assert result.verdicts
        assert all(isinstance(v, PitfallVerdict) for v in result.verdicts)

    def test_trace_path_written_and_echoed(self, tmp_path):
        out = tmp_path / "run.trace.json"
        result = run(RunConfig("zpoline-default", "stress", seed=3,
                               params=(("iterations", 10),),
                               trace_path=str(out)))
        assert result.trace_path == str(out)
        assert out.exists()

    def test_prepared_run_traffic_source_is_keepalive(self):
        from repro.workloads.clients import KeepAliveSource

        prepared = prepare(RunConfig(mechanism="native", workload="redis",
                                     seed=5))
        prepared.boot()
        assert type(prepared.traffic_source()) is KeepAliveSource

    def test_fault_schedule_arms_an_injector(self):
        prepared = prepare(RunConfig("zpoline-default", "cat", seed=9,
                                     schedule=build_schedule(3)))
        assert prepared.injector is not None
        assert prepared.kernel.fault_injector is prepared.injector

    def test_same_config_is_deterministic(self):
        config = RunConfig("zpoline-default", "stress", seed=3,
                           params=(("iterations", 10),))
        assert run(config).cycles == run(config).cycles

    def test_suite_wraps_analyzers(self):
        prepared = prepare(RunConfig("native", "stress",
                                     analyzers=(LatencyAnalyzer(),)))
        assert isinstance(prepared.suite, AnalyzerSuite)
        assert prepared.suite["latency"] is not None
