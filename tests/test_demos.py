"""Every demo script runs to completion, in process, its output captured."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_completes(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
