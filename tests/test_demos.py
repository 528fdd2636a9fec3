"""Every demo runs to the end.

The demos count as callers in tests/test_reachability.py, so each one
is run here, in-process, as `python demos/<name>.py` would run it."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_to_the_end(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    # the planted-defects demo prints MISSED! for a checker that went soft
    assert "MISSED!" not in out
