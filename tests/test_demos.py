"""Smoke tests: every demo script and the README's library tour run to
the end; and the package stays under its line gate.

Each demo is copied into a temporary directory first, so the CSVs it
writes next to itself land there and not in ``demos/out``.
"""

import re
import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert DEMOS, "no demos/0*.py found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path, capsys):
    script = shutil.copy(demo, tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    namespace = {}
    exec(compile(tour.group(1), "README.md", "exec"), namespace)
    sk = namespace["sk"]
    # as the tour's comment says, the protected campaign never settles
    assert sk.cpa_attack(namespace["protected"], 0).disclosure is None


def test_package_stays_under_the_line_gate():
    # ROADMAP, "Rules for every item": the package keeps below 1632 lines; a
    # failure names each module's count, so it shows where the lines went
    lines = {path.name: len(path.read_bytes().splitlines())
             for path in sorted((ROOT / "src" / "scakit").glob("*.py"))}
    assert sum(lines.values()) < 1632, f"{sum(lines.values())} lines: {lines}"
