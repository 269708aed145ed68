"""Report-generator smoke test (heavy sub-experiments stubbed)."""

import io

import pytest

import repro.evaluation.report as report_mod
from repro.evaluation import pipeline as pipe
from repro.evaluation.tables import PAPER_TABLE5


def test_generate_report_structure(monkeypatch):
    from repro.evaluation import figures
    from repro.pitfalls import matrix as matrix_mod
    from repro.pitfalls.poc import PitfallOutcome

    monkeypatch.setattr(report_mod, "table2_site_counts",
                        lambda: {"/usr/bin/TABLE2-STUB": 1})
    monkeypatch.setattr(figures, "render_figure",
                        lambda number: f"FIGURE{number}-STUB")
    outcomes = [PitfallOutcome(p, name, expected, "stub")
                for p, row in matrix_mod.PAPER_TABLE3.items()
                for name, expected in row.items()]
    run = pipe.PipelineRun(results={}, stats=pipe.PipelineStats())
    monkeypatch.setattr(pipe, "run_matrix", lambda **kwargs: pipe.MatrixRun(
        run, pipe.TableRun(run, dict(PAPER_TABLE5), "TABLE5-STUB"),
        pipe.TableRun(run, [], "TABLE6-STUB")))
    import repro.pitfalls as pitfalls_pkg

    monkeypatch.setattr(pitfalls_pkg, "pitfall_matrix", lambda: outcomes)

    stream = io.StringIO()
    text = report_mod.generate_report(out=stream)
    assert text == stream.getvalue()
    for marker in ("TABLE2-STUB", "TABLE5-STUB", "TABLE6-STUB",
                   "FIGURE3-STUB",
                   "Matches the paper exactly: **True**",
                   "Worst per-row deviation"):
        assert marker in text


def test_config_variant_specs():
    from repro.core.config import K23_VARIANTS, ZPOLINE_VARIANTS

    names = [spec.name for spec in ZPOLINE_VARIANTS + K23_VARIANTS]
    assert names == ["zpoline-default", "zpoline-ultra", "K23-default",
                     "K23-ultra", "K23-ultra+"]
    ultra_plus = K23_VARIANTS[-1]
    assert ultra_plus.extra_features == ("NULL Execution Check",
                                         "Stack Switch")
    assert "security" in ultra_plus.suited_for
