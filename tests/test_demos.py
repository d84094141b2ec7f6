"""Every demo runs at its defaults against the current public names; the
stability demo prints its golden output (tests/test_golden.py)."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if path.stem == "run_stability_diagnostics":  # its golden is its whole output
        assert out.encode() == (GOLDEN / f"{path.stem}.txt").read_bytes()
