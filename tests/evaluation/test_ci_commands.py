"""Every command the CI workflow runs must still exist and accept the
flags the workflow passes it.

The workflow is read as text (no YAML parser: the tier-1 job installs
only pytest).  Lines continued with ``\\`` are joined, then every
``python benchmarks/<script>.py ...``, ``python -m repro <sub> ...`` and
``python -m repro.tools.<module> ...`` invocation is collected up to the
next shell separator.  Each command's ``--flag`` arguments are checked
against the options section of its own ``--help``, so a workflow that
still passes a deleted flag fails here instead of in a CI job.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import SUBCOMMANDS

REPO = Path(__file__).resolve().parents[2]
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

_INVOCATION = re.compile(
    r"\bpython3?\s+"
    r"(?:(?P<script>benchmarks/[\w/-]+\.py)"
    r"|-m\s+repro\.tools\.(?P<tool>\w+)"
    r"|-m\s+repro\s+(?P<sub>[\w-]+))"
    r"(?P<rest>[^|;&)\n]*)")
_FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def _invocations(text):
    """{command argv prefix: set of --flags passed to it anywhere}."""
    text = re.sub(r"\\\n\s*", " ", text)
    commands = {}
    for match in _INVOCATION.finditer(text):
        if match["script"]:
            argv = (match["script"],)
        elif match["tool"]:
            argv = ("-m", f"repro.tools.{match['tool']}")
        else:
            argv = ("-m", "repro", match["sub"])
        flags = commands.setdefault(argv, set())
        flags.update(_FLAG.findall(match["rest"]))
    return commands


COMMANDS = _invocations(WORKFLOW.read_text())


def _help_options(argv):
    """The long options listed in the options section of ``--help``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *argv, "--help"], env=env,
                          cwd=REPO, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    options = set()
    for line in done.stdout.splitlines():
        if line.strip().startswith("-"):
            # The option column ends where the help column begins.
            options.update(_FLAG.findall(line.strip().split("  ")[0]))
    return options


def test_workflow_runs_each_kind_of_command():
    kinds = {len(argv) if argv[0] == "-m" else 1 for argv in COMMANDS}
    assert kinds == {1, 2, 3}, sorted(COMMANDS)


def test_invocation_parser_joins_continued_lines():
    text = ("run: |\n"
            "  python -m repro loadtest --requests 10 \\\n"
            "      --out a.json --gone\n"
            "  ID=$(python -m repro sloexplain --worst --json | python -c x)\n"
            "  python benchmarks/bench_x.py --smoke\n")
    assert _invocations(text) == {
        ("-m", "repro", "loadtest"): {"--requests", "--out", "--gone"},
        ("-m", "repro", "sloexplain"): {"--worst", "--json"},
        ("benchmarks/bench_x.py",): {"--smoke"},
    }


@pytest.mark.parametrize("argv", sorted(COMMANDS), ids=" ".join)
def test_command_exists_and_accepts_its_flags(argv):
    if argv[0] != "-m":
        assert (REPO / argv[0]).is_file(), f"{argv[0]} does not exist"
    elif argv[1] == "repro":
        assert argv[2] in SUBCOMMANDS, f"no repro subcommand {argv[2]!r}"
    else:
        assert (REPO / "src" / Path(*argv[1].split("."))).with_suffix(
            ".py").is_file(), f"no module {argv[1]}"
    unknown = COMMANDS[argv] - _help_options(argv)
    assert not unknown, (f"ci.yml passes {sorted(unknown)} to "
                         f"{' '.join(argv)}, which its --help does not list")
