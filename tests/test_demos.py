"""Smoke test: every demo script runs to its end with default arguments."""

import runpy
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_demos_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    paths = sorted(DEMOS.glob("*.py"))
    assert len(paths) == 4
    for path in paths:
        monkeypatch.setattr(sys, "argv", [str(path)])
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out, f"{path.name} printed nothing"
