"""Differential conformance determinism: same seed ⇒ same observation,
in every engine tier."""

import hashlib
import json
import multiprocessing
import os

import pytest

from repro.evaluation.conformance import run_matrix
from repro.faultinject.conformance import (conformance_config, run_cell)
from repro.faultinject.schedule import FaultSchedule, build_schedule
from tests.simutil import select_tier


class TestCellDeterminism:
    def test_same_seed_identical_schedule_bytes(self):
        a = build_schedule(3, conformance_config())
        b = build_schedule(3, conformance_config())
        assert a.encode() == b.encode()

    def test_two_runs_identical_observation(self):
        a = run_cell("K23-default", "cat", 2)
        b = run_cell("K23-default", "cat", 2)
        assert a == b
        assert a.injections == b.injections

    def test_cross_mode_identical_observation(self, monkeypatch):
        select_tier(monkeypatch, "trace-jit")
        cached = run_cell("SUD", "stress", 1)
        select_tier(monkeypatch, "single-step")
        stepped = run_cell("SUD", "stress", 1)
        assert cached == stepped


class TestMatrix:
    def test_artifact_roundtrip(self, tmp_path):
        matrix = run_matrix(mechanisms=("native", "SUD"),
                            workloads=("stress",), seeds=(1,))
        path = matrix.write_artifact(tmp_path / "matrix.json")
        data = json.loads(path.read_text())
        assert data["oracle"] == "native"
        assert data["ok"] is True
        assert data["cells"][0]["mechanism"] == "SUD"
        assert "schedule_sha" in data["cells"][0]

    def test_render_mentions_verdict(self):
        matrix = run_matrix(mechanisms=("native", "SUD"),
                            workloads=("stress",), seeds=(1,))
        text = matrix.render()
        assert "verdict: OK" in text
        assert "SUD" in text


class TestRegressions:
    def test_cat_survives_injected_openat_failure(self):
        """Regression: schedule seed 5 injects EAGAIN into cat's openat;
        the bad fd then fails every read with -EBADF, and cat's loop used
        to treat any nonzero read result as data — spinning forever on
        error results.  The loop now exits on rax <= 0 (as real cat does
        on read errors)."""
        obs = run_cell("native", "cat", 5, max_steps=400_000)
        assert obs.exit_status == 0
        assert any("openat" in line for line in obs.injections)


def schedule_builds(monkeypatch, tmp_path):
    """Patch ``FaultSchedule.__init__`` to log the pid of every schedule
    built (forked pool workers inherit the patch); returns a callable
    that reads the log.  Unpickling a schedule builds none."""
    log = tmp_path / "builds"
    log.touch()
    real = FaultSchedule.__init__

    def recorded(self, *args, **kwargs):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        real(self, *args, **kwargs)

    monkeypatch.setattr(FaultSchedule, "__init__", recorded)
    return lambda: [int(pid) for pid in log.read_text().split()]


class TestSharedSchedules:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_schedule_per_seed(self, jobs, monkeypatch, tmp_path):
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers see the logging patch only if forked")
        builds = schedule_builds(monkeypatch, tmp_path)
        matrix = run_matrix(mechanisms=("native", "SUD"),
                            workloads=("stress", "cat"), seeds=(1, 2, 3),
                            jobs=jobs)
        assert matrix.ok, matrix.render()
        assert len(matrix.verdicts) == 6
        assert builds() == [os.getpid()] * 3

    def test_shared_schedule_cell_equals_own_schedule_cell(self,
                                                           monkeypatch):
        """Every mechanism on stress and cat, seeds 1-2: a cell handed
        the schedule ``run_matrix`` built observes exactly what a cell
        that builds its own does, counters included."""
        import repro.evaluation.conformance as matrix_module
        from repro.interposers.registry import REGISTRY

        compared = []

        def both(mechanism, workload, seed, schedule=None, **kwargs):
            assert schedule is not None
            shared = run_cell(mechanism, workload, seed, schedule=schedule,
                              **kwargs)
            own = run_cell(mechanism, workload, seed, **kwargs)
            assert shared == own
            assert shared.counters == own.counters
            assert shared.injections == own.injections
            assert shared.schedule_sha == own.schedule_sha
            compared.append((mechanism, workload, seed))
            return shared

        monkeypatch.setattr(matrix_module, "run_cell", both)
        run_matrix(workloads=("stress", "cat"), seeds=(1, 2))
        assert len(REGISTRY.names()) == 9
        assert sorted(compared) == sorted(
            (mech, wl, seed) for mech in REGISTRY.names()
            for wl in ("stress", "cat") for seed in (1, 2))

    def test_config_and_schedule_together_are_refused(self):
        config = conformance_config()
        with pytest.raises(ValueError, match="not both"):
            run_cell("native", "stress", 1, config=config,
                     schedule=build_schedule(1, config))

    def test_cached_digest_is_the_encoding_hash(self):
        schedule = build_schedule(4, conformance_config())
        first = schedule.digest()
        assert first == hashlib.sha256(schedule.encode()).hexdigest()
        assert schedule.digest() is first


class TestCliOutputGuard:
    """Only the default matrix may write the committed artifact without
    ``--out``; any other matrix exits 2 naming it."""

    @pytest.mark.parametrize("argv", [
        ["--smoke"], ["--seeds", "2"], ["--seed", "3"],
        ["--workloads", "stress"], ["--mechanisms", "native", "SUD"]])
    def test_other_matrix_without_out_exits_2(self, argv, monkeypatch,
                                              tmp_path, capsys):
        from repro.tools import conformance

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(conformance, "run_matrix", None)
        assert conformance.main(argv) == 2
        assert str(conformance.ARTIFACT_PATH) in capsys.readouterr().err
        assert not (tmp_path / "benchmarks").exists()

    def test_default_matrix_writes_the_committed_path(self, monkeypatch,
                                                      tmp_path, capsys):
        from repro.tools import conformance

        def small(mechanisms, workloads, seeds, **kwargs):
            assert mechanisms is None
            assert tuple(workloads) == conformance.DEFAULT_WORKLOADS
            assert tuple(seeds) == conformance.DEFAULT_SEEDS
            return run_matrix(mechanisms=("native", "SUD"),
                              workloads=("stress",), seeds=(1,), **kwargs)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(conformance, "run_matrix", small)
        assert conformance.main(["--jobs", "1"]) == 0
        written = json.loads(
            (tmp_path / conformance.ARTIFACT_PATH).read_text())
        assert written["mechanisms"] == ["native", "SUD"]
        assert written["ok"] is True


def test_cell_frees_its_blocks_without_a_collection(monkeypatch):
    """A finished cell's kernel is cyclic garbage; the cell drops its
    decoded code first, so reference counting frees almost every block
    before any collection runs, and every superblock: a doomed one drops
    its compiled trace, whose globals hold it.  The stress cells run hot
    enough to compile traces; the ``ls`` cell compiles none."""
    import gc

    import repro.faultinject.conformance as cell_module
    from repro.cpu.engine import Superblock
    from repro.cpu.icache import Block

    def live(cls):
        return sum(1 for o in gc.get_objects() if type(o) is cls)

    select_tier(monkeypatch, "trace-jit")
    held = []
    real = cell_module._observe

    def observe(*args, **kwargs):
        held.append((live(Block), live(Superblock)))
        return real(*args, **kwargs)

    monkeypatch.setattr(cell_module, "_observe", observe)
    for cell in (("K23-ultra", "ls", 1), ("K23-ultra", "stress", 2),
                 ("zpoline-default", "stress", 2), ("native", "stress", 2)):
        run_cell(*cell)  # fills the offline-phase memo
        del held[:]
        gc.collect()
        gc.disable()
        try:
            run_cell(*cell)
            left = (live(Block), live(Superblock))
        finally:
            gc.enable()
        (blocks, superblocks), = held
        assert blocks > 10, cell
        assert left[0] * 10 < blocks, cell
        assert left[1] == 0, (cell, superblocks)
        if cell[1] == "stress":
            assert superblocks > 0, cell
