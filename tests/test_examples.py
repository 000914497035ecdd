"""Smoke tests for the example scripts (the fast ones, in-process).

Examples are documentation that executes; these tests keep them from
rotting. The heavyweight study (warpx_visual_study) is exercised
implicitly through the experiment benches, so only the scripts that
finish in seconds run here.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, argv: list[str], monkeypatch, capsys) -> str:
    monkeypatch.setattr(sys, "argv", [script] + argv)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert exc.value.code in (0, None)
    return capsys.readouterr().out


class TestExamples:
    def test_amr_viz_primer(self, monkeypatch, capsys):
        out = _run("amr_viz_primer.py", [], monkeypatch, capsys)
        assert "Figure 14" in out
        assert "re-sampling's interpolation partially repairs" in out
        # The gap must be reported wider than the crack.
        assert "wider" in out

    def test_parallel_insitu(self, monkeypatch, capsys):
        out = _run("parallel_insitu.py", ["--scale", "0.25", "--workers", "2"], monkeypatch, capsys)
        assert "bound holds: True" in out
        assert "random access" in out

    def test_campaign_planning(self, monkeypatch, capsys):
        out = _run("campaign_planning.py", ["--scale", "0.25"], monkeypatch, capsys)
        assert "Campaign plan" in out
        assert "CR=" in out

    def test_quickstart(self, tmp_path, monkeypatch, capsys):
        out = _run("quickstart.py", [str(tmp_path)], monkeypatch, capsys)
        for codec in ("sz-lr", "sz-interp"):
            assert f"{codec:10s} ratio = " in out
        for method in ("resampling", "dual+redundant"):
            assert f"{method:15s} render R-SSIM = " in out
        for prefix in ("original", "szlr"):
            for method in ("resampling", "dual+redundant"):
                assert (tmp_path / f"{prefix}_{method}.pgm").is_file()
        assert (tmp_path / "nyx_plt").is_dir()
