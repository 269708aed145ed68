"""Pipeline tests: parallel-vs-serial equivalence, cache-key semantics,
memoization hit accounting, and graceful degradation of failing cells.

The full Table 5/6 matrix is benchmark territory; here every matrix is
reduced (two or three mechanisms, tiny iteration counts, one macro row) so
tier-1 stays fast while still exercising the pool, the cache, and the
deterministic merge end to end.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cpu.cycles import DEFAULT_COSTS, Event
from repro.evaluation import pipeline as pipe
from repro.evaluation.cache import (
    MISS,
    NullCache,
    ResultCache,
    cell_key,
    code_digest,
    package_digest,
)
from repro.evaluation.runner import MACRO_CONFIGS, macro_results
from repro.evaluation.tables import render_table5, render_table6
from repro.interposers.registry import REGISTRY

MECHS = ("native", "zpoline-default", "SUD-no-interposition")
MICRO = dict(iterations_low=60, iterations_high=240)


def reduced_micro_specs(mechanisms=MECHS):
    return pipe.micro_specs(mechanisms, **MICRO)


def serial_table6(keys):
    """Table 6 for *keys* the original way: each row measured in process
    by :func:`macro_results`, no pipeline (the equivalence oracle)."""
    rows = []
    for config in MACRO_CONFIGS:
        if config.key not in keys:
            continue
        results = macro_results(config)
        rows.append({
            "label": config.label,
            "native": results["native"].get("throughput"),
            "relative": {name: results[name]["relative_pct"]
                         for name in REGISTRY.names() if name != "native"},
            "paper_relative": config.paper_relative,
        })
    return render_table6(rows)


# ----------------------------------------------------------- equivalence


class TestEquivalence:
    def test_pipeline_matches_legacy_serial_table6(self):
        """The pipeline's Table 6 text is byte-identical to the original
        in-process serial path for the same row."""
        legacy = serial_table6(["redis-1t"])
        piped = pipe.table6(["redis-1t"], jobs=2).text
        assert piped == legacy

    def test_merge_is_order_independent(self):
        specs = reduced_micro_specs()
        forward = pipe.run_cells(specs, jobs=1, cache=None)
        backward = pipe.run_cells(list(reversed(specs)), jobs=1, cache=None)
        assert (pipe.table5_overheads(forward, MECHS[1:])
                == pipe.table5_overheads(backward, MECHS[1:]))

    def test_shard_count_never_perturbs_artifact_bytes(self):
        """--jobs N byte-identity: every shard width renders the same
        table text as the serial run."""
        specs = reduced_micro_specs()
        reference = render_table5(pipe.table5_overheads(
            pipe.run_cells(specs, jobs=1, cache=None), MECHS[1:]))
        for jobs in (2, 3, 5):
            run = pipe.run_cells(specs, jobs=jobs, cache=None)
            assert render_table5(
                pipe.table5_overheads(run, MECHS[1:])) == reference


class TestSharding:
    def test_round_robin_deal_is_deterministic(self):
        specs = reduced_micro_specs()
        first = pipe.shard_specs(specs, 2)
        again = pipe.shard_specs(list(specs), 2)
        assert first == again
        assert first[0] == specs[0::2]
        assert first[1] == specs[1::2]

    def test_shards_partition_without_loss_or_dup(self):
        specs = reduced_micro_specs()
        for jobs in (1, 2, 3, 7):
            shards = pipe.shard_specs(specs, jobs)
            flat = [spec for shard in shards for spec in shard]
            assert sorted(flat, key=id) == sorted(specs, key=id)
            assert all(shard for shard in shards)
            assert len(shards) <= max(1, jobs)

    def test_more_jobs_than_cells_drops_empty_shards(self):
        specs = reduced_micro_specs()[:2]
        shards = pipe.shard_specs(specs, 8)
        assert len(shards) == 2
        assert pipe.shard_specs([], 4) == []

    def test_micro_cell_matches_direct_measurement(self):
        from repro.evaluation.runner import measure_micro_cycles

        spec = reduced_micro_specs(("zpoline-default",))[0]
        value = pipe.execute_cell(spec)
        direct = measure_micro_cycles("zpoline-default", seed=20, **MICRO)
        assert value["cycles_per_call"] == direct


# ----------------------------------------------------------------- caching


class TestMemoization:
    def test_second_run_hits_cache_for_every_cell(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = reduced_micro_specs()
        first = pipe.run_cells(specs, jobs=2, cache=cache)
        assert first.stats.misses == len(specs)
        assert first.stats.hits == 0
        second = pipe.run_cells(specs, jobs=2, cache=cache)
        assert second.stats.hits == len(specs)
        assert second.stats.misses == 0
        assert (pipe.table5_overheads(first, MECHS[1:])
                == pipe.table5_overheads(second, MECHS[1:]))
        assert "cache hits" in second.stats.summary()

    def test_cached_values_survive_json_roundtrip_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = reduced_micro_specs(("native",))[0]
        uncached = pipe.run_cells([spec], cache=cache)
        cached = pipe.run_cells([spec], cache=cache)
        assert cached.results[spec].source == "cache"
        assert (cached.results[spec].value["cycles_per_call"]
                == uncached.results[spec].value["cycles_per_call"])

    def test_null_cache_never_hits(self):
        cache = NullCache()
        cache.put("k", {"v": 1})
        assert cache.get("k") is MISS
        assert len(cache) == 0

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc", {"v": 1})
        assert len(cache) == 1
        assert cache.clear() == 1
        assert cache.get("abc") is MISS


# ------------------------------------------------------- offline prewarm


K23_SMOKE = ("native", "K23-ultra", "K23-default")


def matrix_specs(mechanisms=None, smoke=False):
    """The whole Table 5 + Table 6 matrix over ``table_mechanisms``,
    reduced to the smoke rows and iteration counts when *smoke*."""
    names = pipe.table_mechanisms(mechanisms, smoke)
    if not smoke:
        return pipe.micro_specs(names) + pipe.macro_specs(None, names)
    low, high = pipe.SMOKE_MICRO_ITERATIONS
    return (pipe.micro_specs(names, iterations_low=low, iterations_high=high)
            + pipe.macro_specs(pipe.SMOKE_MACRO_KEYS, names))


@pytest.fixture
def offline_calls(monkeypatch, tmp_path):
    """Record the pid of every ``OfflinePhase.run`` call, forked workers
    included (the patch is inherited across fork), on an empty memo.
    With ``fail_on`` set, an offline run of a program whose path holds
    that text raises instead."""
    from repro import runapi
    from repro.core import OfflinePhase

    log = tmp_path / "offline-calls"
    log.touch()
    real = OfflinePhase.run
    state = {"fail_on": None}

    def recorded(self, path, *args, **kwargs):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        if state["fail_on"] and state["fail_on"] in path:
            raise RuntimeError(f"offline phase of {path} failed")
        return real(self, path, *args, **kwargs)

    monkeypatch.setattr(OfflinePhase, "run", recorded)
    runapi._offline_recipe.cache_clear()

    def pids():
        return [int(line) for line in log.read_text().split()]

    pids.state = state
    return pids


def offline_keys(specs):
    return set().union(*map(pipe.cell_offline_keys, specs))


class TestOfflinePrewarm:
    def test_parent_runs_each_offline_phase_once(self, offline_calls,
                                                 tmp_path):
        specs = matrix_specs(K23_SMOKE, smoke=True)
        keys = offline_keys(specs)
        assert keys == {("stress", ()), ("redis", (("io_threads", 1),))}
        cache = ResultCache(tmp_path / "cache")
        run = pipe.run_cells(specs, jobs=2, cache=cache)
        assert run.stats.mode == "parallel"
        assert all(result.ok for result in run.results.values())
        assert offline_calls() == [os.getpid()] * len(keys)

        from repro import runapi

        runapi._offline_recipe.cache_clear()
        rerun = pipe.run_cells(specs, jobs=2, cache=cache)
        assert rerun.stats.hits == len(specs)
        assert offline_calls() == [os.getpid()] * len(keys)

    def test_macro_and_loadtest_cells_share_the_phase(
            self, offline_calls):
        from repro.traffic.config import TrafficConfig
        from repro.traffic.engine import loadtest_specs

        traffic = TrafficConfig(requests=200, rate=2000, servers=2,
                                connections=8, calibration_requests=12,
                                ramp=(1, 2))
        specs = (pipe.macro_specs(["nginx-1w-0k"],
                                  ["K23-ultra", "K23-default"])
                 + loadtest_specs(["K23-ultra"], "nginx",
                                  traffic.canonical(), 7, 2))
        assert offline_keys(specs[:2]) == {
            ("nginx", (("file_kb", 0), ("workers", 1)))}
        assert offline_keys(specs[2:]) == {
            ("nginx", (("multiconn", 1), ("workers", 2)))}
        # Round-robin over two shards puts each key on both.
        run = pipe.run_cells(specs, jobs=2, cache=None)
        assert run.stats.mode == "parallel"
        assert all(result.ok for result in run.results.values())
        assert offline_calls() == [os.getpid()] * 2

    def test_single_shard_phase_stays_in_its_worker(self, offline_calls):
        specs = (pipe.micro_specs(["K23-ultra"], iterations_low=20,
                                  iterations_high=60)
                 + pipe.macro_specs(["sqlite"], ["native"]))
        run = pipe.run_cells(specs, jobs=2, cache=None)
        assert run.stats.mode == "parallel"
        assert all(result.ok for result in run.results.values())
        calls = offline_calls()
        assert len(calls) == 1 and calls[0] != os.getpid()

    def test_matrix_with_metrics_runs_each_phase_in_the_parent(
            self, offline_calls):
        matrix = pipe.run_matrix(mechanisms=K23_SMOKE, smoke=True, jobs=2,
                                 metrics=True)
        run = matrix.run
        assert run.stats.mode == "parallel"
        assert run.stats.cells == 3 * len(K23_SMOKE)
        assert not run.failures() and matrix.metrics is not None
        assert offline_calls() == [os.getpid()] * len(
            offline_keys(run.results))

    def test_metrics_cell_shares_the_stress_phase(self, offline_calls):
        """A Table 5 cell on one shard and a METRICS cell on the other
        both import the stress logs: the parent runs that phase once."""
        specs = (pipe.micro_specs(["K23-ultra"], iterations_low=20,
                                  iterations_high=60)
                 + pipe.metrics_specs(["K23-ultra"], 12))
        assert [shard[0].kind for shard in pipe.shard_specs(specs, 2)] == \
            ["micro", "metrics"]
        run = pipe.run_cells(specs, jobs=2, cache=None)
        assert run.stats.mode == "parallel"
        assert not run.failures()
        assert offline_calls() == [os.getpid()]

    def test_failed_offline_phase_fails_only_its_cells(self, offline_calls):
        offline_calls.state["fail_on"] = "redis"
        specs = matrix_specs(K23_SMOKE, smoke=True)
        run = pipe.run_cells(specs, jobs=2, cache=None)
        failed = {spec for spec, result in run.results.items()
                  if not result.ok}
        assert failed == {spec for spec in specs if spec.kind == "macro"
                          and spec.mechanism != "native"}
        for spec in failed:
            with pytest.raises(pipe.CellFailure) as excinfo:
                run.value(spec)
            message = str(excinfo.value)
            assert f"cell {spec.label} (seed {spec.seed}) failed" in message
            assert "offline phase of" in message
        # The parent tried each key once; each failing cell retried its own.
        assert offline_calls().count(os.getpid()) == 2
        assert len(offline_calls()) == 2 + len(failed)

    def test_cell_offline_keys_follow_each_kind(self):
        from repro.traffic.engine import loadtest_specs

        assert pipe.cell_offline_keys(
            pipe.micro_specs(["native"])[0]) == set()
        assert pipe.cell_offline_keys(
            pipe.macro_specs(["sqlite"], ["K23-ultra"])[0]) == {("sqlite", ())}
        assert pipe.cell_offline_keys(
            loadtest_specs(["K23-ultra"], "nginx", {"workers": 3}, 7, 2)[0]
        ) == {("nginx", (("multiconn", 1), ("workers", 3)))}
        assert pipe.cell_offline_keys(
            pipe.metrics_specs(["native"], 48)[0]) == set()
        assert pipe.cell_offline_keys(
            pipe.metrics_specs(["K23-default"], 120)[0]) == {("stress", ())}


class TestCacheKeys:
    def test_constant_change_invalidates_exactly_affected_cells(
            self, monkeypatch):
        """Bumping HASHSET_CHECK must re-key the K23-ultra cells (their
        entry check performs the probe) and nothing else."""
        before = {name: cell_key("micro", name, "syscall-stress", 20)
                  for name in ("zpoline-default", "K23-default",
                               "K23-ultra", "K23-ultra+")}
        monkeypatch.setitem(DEFAULT_COSTS, Event.HASHSET_CHECK,
                            DEFAULT_COSTS[Event.HASHSET_CHECK] + 1)
        after = {name: cell_key("micro", name, "syscall-stress", 20)
                 for name in before}
        assert after["K23-ultra"] != before["K23-ultra"]
        assert after["K23-ultra+"] != before["K23-ultra+"]
        assert after["zpoline-default"] == before["zpoline-default"]
        assert after["K23-default"] == before["K23-default"]

    def test_baseline_constant_change_invalidates_every_cell(
            self, monkeypatch):
        names = ("native", "zpoline-default", "SUD")
        before = {name: cell_key("micro", name, "syscall-stress", 20)
                  for name in names}
        monkeypatch.setitem(DEFAULT_COSTS, Event.KERNEL_SYSCALL,
                            DEFAULT_COSTS[Event.KERNEL_SYSCALL] + 1)
        after = {name: cell_key("micro", name, "syscall-stress", 20)
                 for name in names}
        for name in names:
            assert after[name] != before[name]

    def test_comment_only_edit_does_not_change_source_digest(self):
        base = "def f(x):\n    return x + 1\n"
        commented = ("# a new comment explaining f\n"
                     "\n"
                     "def f(x):\n"
                     "    return x + 1  # trailing note\n")
        semantic = "def f(x):\n    return x + 2\n"
        digest = {name: code_digest(compile(text, f"{name}.py", "exec"))
                  for name, text in (("base", base), ("commented", commented),
                                     ("semantic", semantic))}
        assert digest["base"] == digest["commented"]
        assert digest["base"] != digest["semantic"]

    def test_module_digest_is_stable_and_real(self):
        first = package_digest()
        second = package_digest()
        assert first == second
        assert len(first) == 64
        assert package_digest.__wrapped__() == first  # memo == fresh walk

    def test_code_edit_anywhere_changes_every_kind_of_key(self, tmp_path):
        """The modules behind K23's numbers (the rewriter, the syscall
        paths) are covered whichever kind of cell runs them."""
        root = _package_copy(tmp_path)
        before = _keys_of(root)
        assert len(set(before.values())) == len(before)
        _edit(root / "kernel" / "syscall_impl.py",
              "    return 0\n", "    return 1\n")
        after_kernel = _keys_of(root)
        _edit(root / "core" / "libk23.py",
              "        return sites\n", "        return list(sites)\n")
        after_libk23 = _keys_of(root)
        for kind in before:
            assert after_kernel[kind] != before[kind], kind
            assert after_libk23[kind] != after_kernel[kind], kind

    def test_comment_and_blank_line_edits_change_no_key(self, tmp_path):
        root = _package_copy(tmp_path)
        before = _keys_of(root)
        _edit(root / "kernel" / "syscall_impl.py",
              "    return 0\n", "    # a note\n\n    return 0  # why\n")
        _edit(root / "core" / "libk23.py",
              "        return sites\n", "\n        return sites\n")
        assert _keys_of(root) == before

    def test_digest_covers_exactly_the_package(self, tmp_path):
        root = _package_copy(tmp_path)
        digest = package_digest.__wrapped__
        outside = tmp_path / "src" / "outside.py"
        outside.write_text("X = 1\n")
        before = digest(root)
        _edit(outside, "X = 1", "X = 2")
        assert digest(root) == before
        (root / "tools" / "extra.py").write_text("")
        assert digest(root) != before

    def test_digest_independent_of_hash_seed_and_bytecode_cache(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        script = ("from repro.evaluation.cache import package_digest; "
                  "print(package_digest())")
        digests = set()
        for seed, flags in (("1", ["-B"]), ("2", [])):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            done = subprocess.run([sys.executable, *flags, "-c", script],
                                  env=env, capture_output=True, text=True,
                                  check=True, timeout=120)
            digests.add(done.stdout.strip())
        assert digests == {package_digest()}

    def test_distinct_cells_get_distinct_keys(self):
        micro = cell_key("micro", "SUD", "syscall-stress", 20)
        macro = cell_key("macro", "SUD", "redis-1t", 30)
        other_seed = cell_key("micro", "SUD", "syscall-stress", 21)
        assert len({micro, macro, other_seed}) == 3

    def test_every_engine_hatch_gets_its_own_key(self, monkeypatch):
        hatches = ("REPRO_NO_BLOCK_CACHE", "REPRO_NO_CHAIN",
                   "REPRO_NO_TRACE_JIT")
        for hatch in hatches:
            monkeypatch.delenv(hatch, raising=False)
        keys = {cell_key("micro", "SUD", "syscall-stress", 20)}
        for hatch in hatches:
            monkeypatch.setenv(hatch, "1")
            keys.add(cell_key("micro", "SUD", "syscall-stress", 20))
            monkeypatch.delenv(hatch)
        assert len(keys) == 1 + len(hatches)

    def test_unknown_mechanism_rejected(self):
        from repro.interposers import UnknownMechanismError

        with pytest.raises(UnknownMechanismError):
            cell_key("micro", "frobnicator", "syscall-stress", 20)


#: Prints the key of one K23-ultra cell of each kind as JSON.
_KEYS_SCRIPT = """
import json
from repro.evaluation import pipeline as pipe
from repro.traffic.engine import loadtest_specs
specs = {
    "micro": pipe.micro_specs(["K23-ultra"])[0],
    "macro": pipe.macro_specs(["nginx-1w-0k"], ["K23-ultra"])[0],
    "metrics": pipe.metrics_specs(["K23-ultra"], 12)[0],
    "loadtest": loadtest_specs(["K23-ultra"], "nginx", {}, 7, 2)[0],
}
print(json.dumps({kind: spec.cache_key() for kind, spec in specs.items()}))
"""


def _package_copy(tmp_path):
    """A bytecode-free copy of the ``repro`` package under *tmp_path*."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(Path(repro.__file__).parent, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _keys_of(root):
    """The cell keys a fresh interpreter computes from the copy at *root*
    (``-B``: no stale ``__pycache__`` can mask an edit)."""
    env = dict(os.environ, PYTHONPATH=str(root.parent))
    done = subprocess.run([sys.executable, "-B", "-c", _KEYS_SCRIPT],
                          env=env, cwd=root.parent, capture_output=True,
                          text=True, check=True, timeout=120)
    return json.loads(done.stdout)


def _edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


# ------------------------------------------------------------- degradation


class TestFailureHandling:
    def test_failed_cell_captures_traceback_and_rest_complete(self):
        good = reduced_micro_specs(("native", "zpoline-default"))
        bad = pipe.ScenarioSpec("macro", "zpoline-default", "no-such-row", 30)
        run = pipe.run_cells(good + [bad], jobs=2, cache=None)
        assert run.stats.failures == 1
        failed = run.results[bad]
        assert not failed.ok
        assert "unknown macro workload" in failed.error
        assert "Traceback" in failed.error
        for spec in good:
            assert run.results[spec].ok

    def test_unknown_mechanism_cell_fails_gracefully(self):
        good = reduced_micro_specs(("native",))
        bad = pipe.ScenarioSpec("micro", "frobnicator", "syscall-stress", 20,
                                (("iterations_high", 240),
                                 ("iterations_low", 60)))
        run = pipe.run_cells(good + [bad], jobs=2, cache=None)
        assert run.results[good[0]].ok
        assert not run.results[bad].ok
        assert "frobnicator" in run.results[bad].error

    def test_consuming_failed_cell_raises_cell_failure(self):
        bad = pipe.ScenarioSpec("nonsense", "native", "x", 1)
        run = pipe.run_cells([bad], jobs=1, cache=None)
        with pytest.raises(pipe.CellFailure) as excinfo:
            run.value(bad)
        assert "nonsense" in str(excinfo.value)

    def test_serial_fallback_still_completes(self, monkeypatch):
        """A pool that cannot even be created degrades to serial."""

        def broken_pool(*args, **kwargs):
            raise PermissionError("no semaphores in this sandbox")

        import concurrent.futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            broken_pool)
        specs = reduced_micro_specs(("native", "zpoline-default"))
        run = pipe.run_cells(specs, jobs=4, cache=None)
        assert run.stats.mode == "serial"
        assert run.stats.fallback_reason is not None
        assert all(result.ok for result in run.results.values())


# ------------------------------------------------------------- enumeration


class TestEnumeration:
    def test_full_matrix_dimensions(self):
        from repro.evaluation.runner import MACRO_CONFIGS
        from repro.interposers.registry import REGISTRY

        MECHANISMS = REGISTRY.names()

        specs = matrix_specs()
        micro = [s for s in specs if s.kind == "micro"]
        macro = [s for s in specs if s.kind == "macro"]
        assert len(micro) == len(MECHANISMS)
        assert len(macro) == len(MECHANISMS) * len(MACRO_CONFIGS)

    def test_smoke_matrix_is_tiny(self):
        specs = matrix_specs(smoke=True)
        assert {s.mechanism for s in specs} == set(pipe.SMOKE_MECHANISMS)
        assert len(specs) == (len(pipe.SMOKE_MECHANISMS)
                              * (1 + len(pipe.SMOKE_MACRO_KEYS)))

    def test_specs_are_picklable_and_hashable(self):
        import pickle

        specs = matrix_specs(smoke=True)
        assert pickle.loads(pickle.dumps(specs)) == specs
        assert len(set(specs)) == len(specs)

    def test_duplicate_specs_run_once(self):
        spec = reduced_micro_specs(("native",))[0]
        run = pipe.run_cells([spec, spec, spec], jobs=1, cache=None)
        assert len(run.results) == 1
        assert run.stats.cells == 1
