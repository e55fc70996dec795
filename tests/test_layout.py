"""The module layout: ``arcs`` sits low in the import order, so that the
circle map and the certificate can both build on the arc graph, and the
certificate's verdict carries no geometry: the layers that compute verdicts
take only the certificate from ``polygons``.  The package loads each layer on
first use, so a fresh process pays only for the layers it touches."""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from pwlstab import Ga92Verdict, arcs, polygons, sphere

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = sorted(p.stem for p in (SRC / "pwlstab").glob("*.py") if p.stem != "__init__")

# the public names, in the order of the package's former hand-written __all__
PUBLIC = [
    "AnalysisReport", "CONTINUITY_TOL", "CONV_RADIUS", "CertificateStatus", "DIV_RADIUS",
    "EPS_ANGLE", "EigenPair2", "GFixedPoint", "Ga92Verdict", "GridMode", "GridResult",
    "GridSpec", "MeasureEstimate", "NormalForm2D", "ORBIT_BUDGET", "OrbitStatus",
    "OrbitVerdict", "PWLMap", "PeriodicOrbit", "RegimeError", "RegimeReport", "RhoEstimate",
    "SphereMapEval", "SubAction", "ZeroImageError", "analyze", "angle_of", "birkhoff_lambda",
    "circle_D", "circle_G", "classify_regimes", "eig2", "eval_pwl", "g_fixed_points", "ga92",
    "histogram_G", "mix_seed", "orbit", "periodic_orbits_G", "perturbed_map",
    "rho_closed_form", "rho_sampled", "sphere_eval", "sub_action", "sweep_asymptotic",
    "sweep_measure", "write_grid_csv", "write_grid_pgm",
]
# the layers that compute the verdicts, and all that they may take from polygons,
# whose star-polygon geometry is the tests' independent re-check of a verdict
PRODUCT = ("maps", "arcs", "sphere", "sweep", "report", "cli")
CERTIFICATE = {"ga92", "Ga92Verdict", "CertificateStatus", "LAMBDA_POS_TOL", "WITNESS_P_MAX"}


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


def test_product_takes_only_the_certificate_from_polygons():
    for layer in PRODUCT:
        module = importlib.import_module(f"pwlstab.{layer}")
        imports = _relative_imports(module)
        taken = {n for name, names in imports if name == "polygons" for n in names}
        assert taken <= CERTIFICATE, (layer, taken - CERTIFICATE)
        assert not any(name is None and "polygons" in names for name, names in imports), layer
        assert "pwlstab.polygons" not in _absolute_imports(module), layer


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


def _modules_after(statement: str) -> list[str]:
    """Sorted ``sys.modules`` after ``statement`` runs in a fresh interpreter
    that imports pwlstab from src/."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {statement}; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    return ast.literal_eval(out.stdout)


def _defined(path: Path) -> set[str]:
    """Names that the module at ``path`` binds at top level by def, class or =."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return out


@pytest.mark.parametrize("module", ["pwlstab", "pwlstab.cli"])
def test_import_loads_no_process_pool(module):
    # only a sweep with more than one worker needs the pool; every other
    # command is one short process and should not pay for importing it
    loaded = _modules_after(f"import {module}")
    pool = [
        m for m in loaded
        if m.split(".")[0] == "multiprocessing" or m.startswith("concurrent.futures")
    ]
    assert pool == []


def test_bare_import_loads_no_layer():
    # nor numpy: a script that touches one layer pays for that layer only
    loaded = _modules_after("import pwlstab")
    assert [m for m in loaded if m.split(".")[0] in ("pwlstab", "numpy")] == ["pwlstab"]


def test_name_loads_only_its_layer():
    loaded = _modules_after("from pwlstab import NormalForm2D")
    assert [m for m in loaded if m.split(".")[0] == "pwlstab"] == [
        "pwlstab", "pwlstab.errors", "pwlstab.maps",
    ]


def test_layers_resolve_after_bare_import():
    # a layer is reachable as an attribute of the bare package, as it was
    # when every layer loaded with it
    loaded = _modules_after("import pwlstab; pwlstab.sphere; pwlstab.cli.main")
    assert {"pwlstab.sphere", "pwlstab.cli"} <= set(loaded)


def test_public_names_keep_their_order_and_homes():
    import pwlstab

    assert pwlstab.__all__ == PUBLIC
    defined = {layer: _defined(SRC / "pwlstab" / f"{layer}.py") for layer in LAYERS}
    for name in PUBLIC:
        homes = [layer for layer in LAYERS if name in defined[layer]]
        assert len(homes) == 1, (name, homes)
        home = importlib.import_module(f"pwlstab.{homes[0]}")
        assert getattr(pwlstab, name) is getattr(home, name), name
        assert name not in vars(pwlstab), name  # resolved at access, never stored


def test_unknown_name_raises_attribute_error():
    import pwlstab

    with pytest.raises(AttributeError, match="no_such_name"):
        pwlstab.no_such_name
    assert set(PUBLIC) | set(LAYERS) <= set(dir(pwlstab))
