"""Each demo script runs to completion in-process, with warnings as errors."""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
