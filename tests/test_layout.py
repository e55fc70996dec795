"""The module layout: ``arcs`` sits low in the import order, so that the
circle map and the certificate can both build on the arc graph, and the
certificate's verdict carries no geometry."""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from pwlstab import Ga92Verdict, arcs, polygons, sphere

SRC = Path(__file__).resolve().parent.parent / "src"


def _relative_imports(module) -> list[tuple[str, list[str]]]:
    """(module, names) of each ``from .module import names`` in ``module``'s source."""
    tree = ast.parse(Path(module.__file__).read_text())
    return [
        (node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]


def _absolute_imports(module) -> list[str]:
    """Names of the modules that ``module`` imports without a leading dot."""
    tree = ast.parse(Path(module.__file__).read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module)
    return out


def test_arcs_imports_only_maps_and_errors():
    # the rule allows errors too; arcs raises no error type of its own
    assert {name for name, _ in _relative_imports(arcs)} == {"maps"}
    assert not any(name.startswith("pwlstab") for name in _absolute_imports(arcs))


def test_polygons_takes_only_sub_action_from_arcs():
    taken = [names for name, names in _relative_imports(polygons) if name == "arcs"]
    assert taken == [["sub_action"]]


def test_sphere_holds_no_arc_graph():
    taken = [names for name, names in _relative_imports(sphere) if name == "arcs"]
    assert taken == [["sector_sign"]]
    for name in (
        "ArcGraph", "arc_graph", "SubAction", "sub_action", "_positive_cycle",
        "SUB_ACTION_ETA", "ARC_PAD",
    ):
        assert not hasattr(sphere, name), name


def test_verdict_keeps_no_polygon():
    assert not any("StarPolygon" in str(f.type) for f in dataclasses.fields(Ga92Verdict))


@pytest.mark.parametrize("module", ["pwlstab", "pwlstab.cli"])
def test_import_loads_no_process_pool(module):
    # only a sweep with more than one worker needs the pool; every other
    # command is one short process and should not pay for importing it
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
        " or m.startswith('concurrent.futures')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "[]\n"
