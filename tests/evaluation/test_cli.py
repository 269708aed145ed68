"""evalrun CLI tests (``python -m repro evalrun``): one target per paper
artifact.  Runs pass ``--no-cache`` so nothing is written to the home
result cache."""

import pytest

from repro.tools.evalrun import ARTIFACT_TARGETS, MATRIX_TARGETS, main


def _exit_code(argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    return exited.value.code


def test_help(capsys):
    assert _exit_code(["--help"]) == 0
    out = capsys.readouterr().out
    for target in (*ARTIFACT_TARGETS, *MATRIX_TARGETS, "report"):
        assert target in out, target


def test_unknown_target(capsys):
    assert _exit_code(["table99"]) == 2
    assert "invalid choice: 'table99'" in capsys.readouterr().err


def test_matrix_option_on_an_artifact_target(capsys):
    assert _exit_code(["table4", "--smoke"]) == 2
    assert "table4 does not take --smoke" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--metrics-out", "m.json"],
                                   ["--no-metrics"]])
def test_metrics_option_on_table6(capsys, flags):
    """Only table5 and matrix write METRICS; table6 must not silently
    accept the flags and ignore them."""
    assert _exit_code(["table6", "--no-cache", *flags]) == 2
    err = capsys.readouterr().err
    assert f"table6 does not take {flags[0]}" in err
    assert "(only table5, matrix do)" in err


def test_table4(capsys):
    assert main(["table4", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "K23-ultra+" in out


def test_figure1(capsys):
    assert main(["figure1", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "partial instruction" in out


def test_figure3(capsys):
    assert main(["figure3", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "ls.log" in out and "libc.so.6," in out


def test_table6_single_row(capsys):
    assert main(["table6", "--rows", "redis-1t", "--no-cache",
                 "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "redis (1 I/O thread)" in out
    assert "geomean" in out


def test_table6_unknown_row(capsys):
    assert _exit_code(["table6", "--rows", "minecraft", "--no-cache"]) == 2
    assert "unknown table6 row" in capsys.readouterr().err


def _evalrun_matrix(capsys, metrics, *flags):
    """``evalrun matrix --smoke`` → (exit status, stdout, METRICS bytes or
    None, stderr)."""
    status = main(["matrix", "--smoke", *flags, "--metrics-out",
                   str(metrics)])
    out, err = capsys.readouterr()
    return (status, out, metrics.read_bytes() if metrics.exists() else None,
            err)


def test_failed_metrics_cell_is_reported_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    from repro.evaluation import metrics

    real = metrics.mechanism_snapshot

    def snapshot(name, *args):
        if name == "zpoline-default":
            raise RuntimeError("metrics run broke")
        return real(name, *args)

    monkeypatch.setattr(metrics, "mechanism_snapshot", snapshot)
    status, out, written, err = _evalrun_matrix(
        capsys, tmp_path / "M.json", "--jobs", "1", "--no-cache")
    assert status == 1 and written is None
    assert "FAILED metrics:stress:zpoline-default (seed 99):\n" in err
    assert "Traceback" in err and "metrics run broke" in err
    assert "FAILED micro" not in err and "FAILED macro" not in err
    assert "metrics:" not in err.replace("FAILED metrics:", "")
    # Both tables' cells succeeded, so both tables still print.
    assert "zpoline-default        |  1.1240x" in out
    assert "redis (1 I/O thread)" in out
