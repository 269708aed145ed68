"""Every command the CI workflow runs must still exist and accept the
flags the workflow passes it, and every job that runs pytest must install
what its test modules import.

The workflow is read as text (no YAML parser: CI installs only the
``test`` extra of ``pyproject.toml``).  Lines continued with ``\\`` are
joined, then every ``python benchmarks/<script>.py ...``, ``python -m
repro <sub> ...``, ``python -m repro.tools.<module> ...`` and ``python -m
pytest benchmarks/...`` invocation is collected up to the next shell
separator.  Each command's ``--flag`` arguments are checked against the
options section of its own ``--help``, so a workflow that still passes a
deleted flag fails here instead of in a CI job.  Each job's ``pip
install`` arguments are expanded (``.[test]`` becomes the extra's
requirements) and checked against the third-party modules imported by
the files its ``pytest`` runs collect.
"""

import ast
import importlib.metadata
import os
import re
import shlex
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
    r"|-m\s+repro\s+(?P<sub>[\w-]+)"
    r"|-m\s+pytest\s+(?P<tests>benchmarks/[\w/.-]*))"
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
        elif match["tests"]:
            argv = ("-m", "pytest", match["tests"])
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
            "  python benchmarks/bench_x.py --smoke\n"
            "  python -m pytest benchmarks/ -q --smoke\n")
    assert _invocations(text) == {
        ("-m", "repro", "loadtest"): {"--requests", "--out", "--gone"},
        ("-m", "repro", "sloexplain"): {"--worst", "--json"},
        ("benchmarks/bench_x.py",): {"--smoke"},
        ("-m", "pytest", "benchmarks/"): {"--smoke"},
    }


def missing_command(argv):
    """Why *argv* names nothing that can run, or ``None``."""
    if argv[0] != "-m":
        if not (REPO / argv[0]).is_file():
            return f"{argv[0]} does not exist"
    elif argv[1] == "pytest":
        if not (REPO / argv[2]).exists():
            return f"{argv[2]} does not exist"
    elif argv[1] == "repro":
        if argv[2] not in SUBCOMMANDS:
            return f"no repro subcommand {argv[2]!r}"
    elif not (REPO / "src" / Path(*argv[1].split("."))).with_suffix(
            ".py").is_file():
        return f"no module {argv[1]}"
    return None


@pytest.mark.parametrize("argv", sorted(COMMANDS), ids=" ".join)
def test_command_exists_and_accepts_its_flags(argv):
    problem = missing_command(argv)
    assert problem is None, problem
    unknown = COMMANDS[argv] - _help_options(argv)
    assert not unknown, (f"ci.yml passes {sorted(unknown)} to "
                         f"{' '.join(argv)}, which its --help does not list")


# ------------------------------------------------------- test dependencies

_JOB = re.compile(r"^  ([\w-]+):\n", re.M)
_PIP_INSTALL = re.compile(r"\bpip\s+install\s+(?P<args>[^|;&)\n]*)")
_PYTEST = re.compile(r"\bpython3?\s+-m\s+pytest\b(?P<args>[^|;&)\n]*)")
_EXTRAS = re.compile(r"\.\[(?P<extras>[\w,-]+)\]")


def _dist(requirement):
    """The distribution a requirement names, normalized (PEP 503)."""
    name = re.match(r"[\w.-]+", requirement).group()
    return re.sub(r"[-_.]+", "-", name).lower()


def _jobs(text):
    """{job id: its lines of the workflow}, continued lines joined."""
    text = re.sub(r"\\\n\s*", " ", text)
    parts = _JOB.split(re.split(r"^jobs:\n", text, maxsplit=1, flags=re.M)[1])
    return dict(zip(parts[1::2], parts[2::2]))


def _installed(job_text, extras):
    """Normalized distributions a job's ``pip install`` lines install;
    ``.[name]`` expands to the requirements of extra *name*."""
    dists = set()
    for match in _PIP_INSTALL.finditer(job_text):
        for arg in shlex.split(match["args"]):
            found = _EXTRAS.fullmatch(arg)
            if found:
                for extra in found["extras"].split(","):
                    dists.update(_dist(req) for req in extras[extra])
            elif not arg.startswith("-"):
                dists.add(_dist(arg))
    return dists


def _pytest_paths(job_text):
    """The paths a job's pytest runs collect (``testpaths`` when none)."""
    paths = []
    for match in _PYTEST.finditer(job_text):
        args = [arg for arg in shlex.split(match["args"])
                if not arg.startswith("-")]
        paths.extend(args or ["tests"])
    return paths


def _third_party_imports(root):
    """Top-level modules imported under *root* that are neither stdlib,
    nor the package, nor modules of the repository itself."""
    top = REPO / root.split("/")[0]
    local = {entry.stem for entry in top.rglob("*")}
    local |= {entry.name for entry in REPO.iterdir()}
    local |= {entry.name for entry in (REPO / "src").iterdir()}
    target = REPO / root
    files = [target] if target.is_file() else sorted(target.rglob("*.py"))
    modules = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0]
                               for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules.add(node.module.split(".")[0])
    return {module for module in modules
            if module not in sys.stdlib_module_names
            and module not in local}


def _missing_installs(text, extras):
    """{job: distributions its pytest runs import but it does not install}."""
    providers = importlib.metadata.packages_distributions()
    missing = {}
    for job, job_text in _jobs(text).items():
        needed = set()
        for root in _pytest_paths(job_text):
            needed.update(_dist(providers.get(module, [module])[0])
                          for module in _third_party_imports(root))
        gap = needed - _installed(job_text, extras)
        if gap:
            missing[job] = sorted(gap)
    return missing


def _test_extras():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]["optional-dependencies"]


def test_every_pytest_job_installs_what_its_tests_import():
    assert _missing_installs(WORKFLOW.read_text(), _test_extras()) == {}


def test_dependency_guard_flags_a_hand_kept_install_line():
    # The install line CI used before it installed the test extra: the
    # property tests import hypothesis, which it does not install.
    text = ("jobs:\n"
            "  old:\n"
            "    steps:\n"
            "      - run: python -m pip install pytest pytest-benchmark\n"
            "      - run: python -m pytest tests/properties -q\n"
            "  new:\n"
            "    steps:\n"
            "      - run: python -m pip install -e \".[test]\"\n"
            "      - run: |\n"
            "          python -m pytest tests/cpu \\\n"
            "              tests/properties -q\n")
    assert _missing_installs(text, _test_extras()) == {"old": ["hypothesis"]}
