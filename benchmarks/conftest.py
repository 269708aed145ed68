"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables or figures,
sanity-checks the result against the paper's reference values, and
writes the rendered artifact to ``benchmarks/output/`` (the files
EXPERIMENTS.md quotes; :mod:`repro.evaluation.manifest` names the module
that writes each one).

The measurement matrices (Table 5/6) are built by
:func:`repro.evaluation.pipeline.table5` and
:func:`~repro.evaluation.pipeline.table6` on the parallel, memoized
evaluation pipeline.  Knobs::

    pytest benchmarks/                                  # full matrix
    pytest benchmarks/ --smoke                          # 2 mechanisms, tiny
    pytest benchmarks/ --eval-jobs 8                    # pool width
    pytest benchmarks/ --no-eval-cache                  # recompute all cells

``--smoke`` skips everything marked ``full_matrix`` and shrinks the
mechanism axis to :data:`repro.evaluation.pipeline.SMOKE_MECHANISMS`, so a
smoke pass finishes in seconds while the complete matrix stays opt-in.
Its Table 5/6 artifacts go to ``*.smoke.txt``; every other artifact has
one protocol and is written under its committed name either way.
"""

import os
import pathlib

import pytest

from repro.evaluation import pipeline as pipe
from repro.evaluation.cache import ResultCache

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def pytest_addoption(parser):
    group = parser.getgroup("evaluation pipeline")
    group.addoption("--smoke", action="store_true", default=False,
                    help="reduced matrix: 2 mechanisms, tiny iteration "
                         "counts; skips full_matrix benchmarks")
    group.addoption("--eval-jobs", type=int, default=os.cpu_count() or 1,
                    help="worker processes for evaluation cells")
    group.addoption("--no-eval-cache", action="store_true", default=False,
                    help="disable the content-addressed result cache")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "full_matrix: runs the complete mechanism/workload matrix "
        "(skipped under --smoke)")


def pytest_collection_modifyitems(config, items):
    if not config.getoption("--smoke"):
        return
    skip = pytest.mark.skip(reason="full-matrix benchmark skipped by --smoke")
    for item in items:
        if "full_matrix" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def smoke(pytestconfig) -> bool:
    return pytestconfig.getoption("--smoke")


@pytest.fixture(scope="session")
def eval_jobs(pytestconfig) -> int:
    return max(1, pytestconfig.getoption("--eval-jobs"))


@pytest.fixture(scope="session")
def eval_cache(pytestconfig):
    if pytestconfig.getoption("--no-eval-cache"):
        return None
    return ResultCache()


@pytest.fixture(scope="session")
def table_options(smoke, eval_jobs, eval_cache):
    """Keyword arguments for :func:`repro.evaluation.pipeline.table5`
    and ``table6`` this session."""
    return dict(smoke=smoke, jobs=eval_jobs, cache=eval_cache)


@pytest.fixture(scope="session")
def bench_mechanisms(smoke):
    """The mechanism axis benchmarks measure this session."""
    return pipe.table_mechanisms(smoke=smoke)


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def save_artifact(artifact_dir):
    """Write a rendered artifact under *name*."""

    def _save(name: str, text: str) -> pathlib.Path:
        path = artifact_dir / name
        path.write_text(text)
        return path

    return _save
