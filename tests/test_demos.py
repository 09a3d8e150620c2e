"""Smoke tests: every demo script and the README's library tour run to
the end; the package stays under its line gate, and each of its public
names is read by the package or a demo; the tests' oracles import nothing
from the engine under test; ``aes._check_index`` is the package's one index rule.

Each demo is copied into a temporary directory first, so the CSVs it
writes next to itself land there and not in ``demos/out``.
"""

import ast
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


def test_oracles_import_nothing_from_cpa_or_hd():
    # ROADMAP, "Quality of design" and item 4: the tests' oracles stay independent of
    # the engine they check, so no import statement in tests/helpers.py or the
    # acceptance suite names scakit.cpa or scakit.hd; the criteria reach the engine
    # under test through the package, as ``sk``
    engine = ("scakit.cpa.", "scakit.hd.")
    named = []
    for name in ("helpers.py", "test_acceptance.py"):
        for node in ast.walk(ast.parse((ROOT / "tests" / name).read_bytes())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):   # a name the statement takes from a module
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            named += [f"{name}:{node.lineno} {module}" for module in modules
                      if f"{module}.".startswith(engine)]
    assert not named, f"oracle imports from the engine under test: {named}"


def test_one_index_rule():
    # ROADMAP item 11: aes._check_index is the only rule that tells an index from
    # a bool or a fraction, so numbers.Integral is read nowhere else in the package,
    # and the per-parameter checks it replaced stay deleted
    reads, defined = [], set()
    for path in sorted((ROOT / "src" / "scakit").glob("*.py")):
        tree = ast.parse(path.read_bytes())
        rule = [node for node in tree.body if path.stem == "aes"
                and isinstance(node, ast.FunctionDef) and node.name == "_check_index"]
        inside = {id(node) for function in rule for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(f"{path.stem}.{node.name}")
            if (isinstance(node, ast.Attribute) and node.attr == "Integral"
                    or isinstance(node, ast.Name) and node.id == "Integral"):
                reads.append((path.name, node.lineno, id(node) in inside))
    assert "aes._check_index" in defined
    assert not [name for name in defined if name.endswith(("._check_byte_index", "._check_guess"))]
    assert reads and all(inside for *_, inside in reads), f"numbers.Integral read at {reads}"


def test_every_public_name_has_a_caller():
    # ROADMAP, "Quality of design": every public module-level function, class and
    # assignment, and every public method of a public class, is read (a name load
    # or an attribute) in the package or a demo. Imports, such as the re-exports of
    # __init__.py, are not reads, and tests do not count: an oracle that only a test
    # needs belongs in tests/helpers.py
    def trees(folder):
        return {path.stem: ast.parse(path.read_bytes()) for path in sorted(folder.glob("*.py"))}

    package = trees(ROOT / "src" / "scakit")
    read = set()
    for tree in [*package.values(), *trees(ROOT / "demos").values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)

    def defined(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return [target.id for target in targets if isinstance(target, ast.Name)]

    public = []
    for module, tree in package.items():
        for node in tree.body:
            public += [(f"{module}.{name}", name) for name in defined(node)]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                public += [(f"{module}.{node.name}.{item.name}", item.name)
                           for item in node.body if isinstance(item, ast.FunctionDef)]
    unread = [where for where, name in public if not name.startswith("_") and name not in read]
    assert not unread, f"public names that nothing in the package or a demo reads: {unread}"
