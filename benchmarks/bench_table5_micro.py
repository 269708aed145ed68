"""Table 5 — microbenchmark: syscall 500 under every mechanism.

Reproduces the paper's overhead factors relative to native execution and
asserts each is within 2 % of the published value, with the published
ordering intact.  :func:`repro.evaluation.pipeline.table5` builds the
table on the parallel, memoized pipeline (one cell per mechanism; see
``conftest.py`` for the ``--smoke``, ``--eval-jobs`` and
``--no-eval-cache`` knobs).
"""

import pytest

from repro.evaluation import pipeline as pipe
from repro.evaluation.tables import PAPER_TABLE5


@pytest.fixture(scope="module")
def table5(table_options):
    return pipe.table5(**table_options)


@pytest.fixture(scope="module")
def overheads(table5):
    return table5.checked().rows


def test_table5_render(table5, overheads, smoke, save_artifact):
    save_artifact("table5.smoke.txt" if smoke else "table5.txt", table5.text)
    assert overheads and all(name in table5.text for name in overheads)


@pytest.mark.parametrize("mechanism", list(PAPER_TABLE5))
def test_table5_cell(overheads, mechanism):
    if mechanism not in overheads:
        pytest.skip(f"{mechanism} outside the --smoke mechanism axis")
    assert overheads[mechanism] == pytest.approx(PAPER_TABLE5[mechanism],
                                                 rel=0.02)


@pytest.mark.full_matrix
def test_table5_ordering(overheads):
    order = ["zpoline-default", "zpoline-ultra", "SUD-no-interposition",
             "K23-default", "lazypoline", "K23-ultra", "K23-ultra+", "SUD"]
    values = [overheads[name] for name in order]
    assert values == sorted(values)


def test_table5_pipeline_accounting(table5, bench_mechanisms):
    """Every cell either hit the cache or was executed; none failed."""
    stats = table5.run.stats
    assert stats.cells == len(bench_mechanisms)
    assert stats.hits + stats.misses == stats.cells
    assert not table5.run.failures()
