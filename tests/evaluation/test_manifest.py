"""The artifact manifest names one runnable command for every committed
file under ``benchmarks/output/``."""

import shutil
import subprocess

import pytest

from repro.evaluation.manifest import ARTIFACTS
from tests.evaluation.test_ci_commands import (REPO, _help_options,
                                               _invocations, missing_command)


def test_every_committed_artifact_has_one_entry():
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("needs a git checkout")
    tracked = subprocess.run(
        ["git", "ls-files", "benchmarks/output"], cwd=REPO,
        capture_output=True, text=True, check=True).stdout.split()
    assert set(ARTIFACTS) == set(tracked)


@pytest.mark.parametrize("command", sorted(set(ARTIFACTS.values())))
def test_command_exists_and_accepts_its_flags(command):
    invocations = _invocations(command)
    assert len(invocations) == 1, f"cannot parse {command!r}"
    (argv, flags), = invocations.items()
    problem = missing_command(argv)
    assert problem is None, problem
    unknown = flags - _help_options(argv) if flags else set()
    assert not unknown, (f"{command!r} passes {sorted(unknown)}, which "
                         "its --help does not list")


# ------------------------------------------------ default output paths


class _Reached(Exception):
    """Raised by a stubbed run: the CLI got past its output guard."""


def _stop(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize("argv", [
    ["matrix", "--smoke"], ["table5", "--mechanisms", "native", "SUD"]])
def test_evalrun_refuses_to_overwrite_metrics(argv, monkeypatch, tmp_path,
                                              capsys):
    from repro.evaluation import pipeline
    from repro.evaluation.metrics import METRICS_TABLE5_PATH
    from repro.tools import evalrun

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pipeline, "run_matrix", _stop)
    with pytest.raises(SystemExit) as exited:
        evalrun.main([*argv, "--no-cache"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert str(METRICS_TABLE5_PATH) in err and "--metrics-out" in err
    assert not (tmp_path / "benchmarks").exists()


@pytest.mark.parametrize("argv", [
    ["table5", "--jobs", "3", "--seed", "5", "--no-cache", "--verbose"],
    ["matrix", "--smoke", "--metrics-out", "m.json", "--no-cache"],
    ["matrix", "--smoke", "--no-metrics", "--no-cache"],
    ["table6", "--smoke", "--no-cache"]])
def test_evalrun_writes_metrics_when_its_bytes_are_the_committed_ones(
        argv, monkeypatch, tmp_path):
    from repro.evaluation import pipeline
    from repro.tools import evalrun

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(evalrun, "_interp_probe", lambda: "")
    monkeypatch.setattr(pipeline, "run_matrix", _stop)
    with pytest.raises(_Reached):
        evalrun.main(argv)


@pytest.mark.parametrize("argv", [
    ["--workload", "redis", "--mechanisms", "SUD,K23-ultra"],
    ["--requests", "10000"], ["--spans"], ["--seed", "1"]])
def test_loadtest_refuses_to_overwrite_the_slo_report(argv, monkeypatch,
                                                      tmp_path, capsys):
    from repro.tools import loadtest
    from repro.traffic import engine
    from repro.traffic.slo import DEFAULT_OUTPUT

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(engine, "run_loadtest", _stop)
    assert loadtest.main(argv) == 2
    err = capsys.readouterr().err
    assert DEFAULT_OUTPUT in err and "--out" in err
    assert not (tmp_path / "benchmarks").exists()


@pytest.mark.parametrize("argv", [
    ["--jobs", "4", "--no-cache"],
    ["--requests", "10000", "--out", "slo.json"]])
def test_loadtest_writes_elsewhere_or_the_committed_bytes(argv, monkeypatch,
                                                          tmp_path):
    from repro.tools import loadtest
    from repro.traffic import engine

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(engine, "run_loadtest", _stop)
    # The stub's exception is the run's error, reported after the guard.
    assert loadtest.main(argv) == 1
