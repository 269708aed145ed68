"""Figures 1–4 — regenerated from live simulator state."""

from repro.evaluation import figures


def test_figure1_misidentification(save_artifact):
    text = figures.figure1()
    save_artifact("figure1.txt", text)
    assert "2 valid" in text and "1 partial" in text and "2 data" in text


def test_figure2_offline_flow(save_artifact):
    text = figures.figure2()
    save_artifact("figure2.txt", text)
    assert "libLogger" in text


def test_figure3_ls_log(save_artifact):
    path, contents = figures.figure3()
    save_artifact("figure3.txt", f"{path}\n\n{contents}")
    assert len([l for l in contents.splitlines() if l]) == 10


def test_figure4_online_flow(save_artifact):
    text = figures.figure4()
    save_artifact("figure4.txt", text)
    assert "ptracer:detach" in text
    assert "uninterposed             :     0" in text
