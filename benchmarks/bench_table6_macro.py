"""Table 6 — macrobenchmarks: nginx, lighttpd, redis, sqlite.

One benchmark per row; each regenerates the row's native figure and every
mechanism's relative throughput (or relative runtime for sqlite), asserting
the paper's shape: native within 2 %, binary-rewriting interposers ≥ 95 %,
SUD within a few points of the published collapse.
:func:`repro.evaluation.pipeline.table6` builds the table on the
parallel, memoized pipeline; under ``--smoke`` only the reduced rows and
mechanisms run.
"""

import pytest

from repro.evaluation import pipeline as pipe
from repro.evaluation.runner import MACRO_BY_KEY, MACRO_CONFIGS


@pytest.fixture(scope="module")
def bench_rows(smoke):
    if smoke:
        return list(pipe.SMOKE_MACRO_KEYS)
    return [config.key for config in MACRO_CONFIGS]


@pytest.fixture(scope="module")
def table6(table_options, bench_rows):
    return pipe.table6(bench_rows, **table_options)


@pytest.fixture(scope="module")
def rows_by_key(table6, bench_rows):
    return dict(zip(bench_rows, table6.checked().rows))


@pytest.mark.parametrize("key", [config.key for config in MACRO_CONFIGS])
def test_table6_row(key, rows_by_key, smoke, save_artifact):
    if key not in rows_by_key:
        pytest.skip(f"{key} outside the --smoke row axis")
    config = MACRO_BY_KEY[key]
    row = rows_by_key[key]
    if config.paper_native and row["native"] is not None:
        assert row["native"] == pytest.approx(config.paper_native, rel=0.02)
    for name, paper_pct in (config.paper_relative or {}).items():
        if name not in row["relative"]:
            continue  # outside the --smoke mechanism axis
        measured = row["relative"][name]
        if paper_pct > 90:
            assert measured == pytest.approx(paper_pct, abs=2.5), name
        else:
            # The SUD collapse: reproduce within 8 points.
            assert measured == pytest.approx(paper_pct, abs=8.0), name
    lines = [f"{key}:"]
    for name, pct in row["relative"].items():
        lines.append(f"  {name:24s} {pct:7.2f}%")
    suffix = ".smoke.txt" if smoke else ".txt"
    save_artifact(f"table6_{key}{suffix}", "\n".join(lines))


@pytest.mark.full_matrix
def test_table6_full_render(table6, save_artifact):
    save_artifact("table6.txt", table6.text)
    assert "geomean" in table6.text


def test_table6_pipeline_accounting(table6, bench_rows, bench_mechanisms):
    stats = table6.run.stats
    assert stats.cells == len(bench_rows) * len(bench_mechanisms)
    assert not table6.run.failures()
