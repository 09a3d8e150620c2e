"""Smoke test: every demo script runs to the end.

Each demo is copied into a temporary directory first, so the CSVs it
writes next to itself land there and not in ``demos/out``.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("0*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/0*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path, capsys):
    script = shutil.copy(demo, tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
