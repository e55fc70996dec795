"""Stability analysis of continuous piecewise-linear maps with one switching plane.

The origin of such a map is a fixed point on the switching boundary; this
package decides and quantifies its stability.  ``maps`` holds the map types
and orbit iteration, ``sphere`` the radial/angular decomposition (circle
map, Birkhoff averages, attracted fractions, periodic ray orbits), ``arcs``
the arc graph of the circle map (``arcs.ArcGraph``, built by
``arcs.arc_graph``) and its solvers, ``polygons`` the certificate ``ga92``
(witness scan, then sub-action), ``sweep`` deterministic two-parameter
grids, and ``cli`` the command line.  ``polygons`` also holds star-polygon
geometry that no verdict uses and the package does not export: the tests
re-check certified regions with it, from ``pwlstab.polygons``.

Each layer loads on first use (PEP 562): ``import pwlstab`` imports none of
them, nor numpy, and ``pwlstab.NormalForm2D`` imports only ``maps`` and what
``maps`` imports.  A name is looked up in its home module at every access,
so the package keeps no copy of it and a name patched in its home module
reads patched through the package too.
"""

import importlib

__version__ = "0.1.0"

# the home module of every public name; __all__ lists them sorted
_HOMES = {
    "errors": ("RegimeError", "ZeroImageError"),
    "arcs": ("SubAction", "sub_action"),
    "maps": (
        "CONTINUITY_TOL", "CONV_RADIUS", "DIV_RADIUS", "ORBIT_BUDGET", "EigenPair2",
        "NormalForm2D", "OrbitStatus", "OrbitVerdict", "PWLMap", "eig2", "eval_pwl",
        "orbit", "perturbed_map",
    ),
    "polygons": ("CertificateStatus", "Ga92Verdict", "ga92"),
    "report": ("AnalysisReport", "analyze"),
    "sphere": (
        "EPS_ANGLE", "GFixedPoint", "MeasureEstimate", "PeriodicOrbit", "RegimeReport",
        "RhoEstimate", "SphereMapEval", "angle_of", "birkhoff_lambda", "circle_D",
        "circle_G", "classify_regimes", "g_fixed_points", "histogram_G",
        "periodic_orbits_G", "rho_closed_form", "rho_sampled", "sphere_eval",
    ),
    "sweep": (
        "GridMode", "GridResult", "GridSpec", "mix_seed", "sweep_asymptotic",
        "sweep_measure", "write_grid_csv", "write_grid_pgm",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
