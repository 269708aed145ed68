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
