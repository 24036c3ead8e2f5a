"""Docs checks: every demo script runs to its end with default arguments,
and README names every public name of the package."""

import re
import runpy
import sys
from pathlib import Path

import wcsf

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_demos_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    paths = sorted(DEMOS.glob("*.py"))
    assert len(paths) == 4
    for path in paths:
        monkeypatch.setattr(sys, "argv", [str(path)])
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out, f"{path.name} printed nothing"


def test_readme_names_every_public_name():
    # each name in wcsf.__all__ must appear in README as code: opening a
    # backtick span or after "wcsf.", so a plain English word such as
    # "velocity" or "length" does not count
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in wcsf.__all__ if name != "__version__"
               and not re.search(rf"(`|wcsf\.){re.escape(name)}\b", readme)]
    assert missing == []
