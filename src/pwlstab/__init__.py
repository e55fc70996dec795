"""Stability analysis of continuous piecewise-linear maps with one switching plane.

The origin of such a map is a fixed point on the switching boundary; this
package decides and quantifies its stability.  ``maps`` holds the map types
and orbit iteration, ``sphere`` the radial/angular decomposition (circle
map, Birkhoff averages, attracted fractions, periodic ray orbits), ``arcs``
the arc graph of the circle map (``arcs.ArcGraph``, built by
``arcs.arc_graph``) and its solvers, ``polygons`` star-polygon
geometry and the certificate ``ga92`` (witness scan, then sub-action),
``sweep`` deterministic two-parameter grids, and ``cli`` the command line.
"""

from .errors import DegenerateImageError, RegimeError, ZeroImageError
from .arcs import SubAction, sub_action
from .maps import (
    CONTINUITY_TOL,
    CONV_RADIUS,
    DIV_RADIUS,
    ORBIT_BUDGET,
    EigenPair2,
    NormalForm2D,
    OrbitStatus,
    OrbitVerdict,
    PWLMap,
    eig2,
    eval_pwl,
    orbit,
    perturbed_map,
)
from .polygons import (
    EPS_GEOM,
    CertificateStatus,
    Ga92Verdict,
    StarPolygon,
    containment_protrusion,
    delta_sequence,
    ga92,
    image_polygon,
    separated_from_gamma,
    union_star,
    write_polygon_csv,
)
from .report import AnalysisReport, analyze
from .sphere import (
    EPS_ANGLE,
    GFixedPoint,
    MeasureEstimate,
    PeriodicOrbit,
    RegimeReport,
    RhoEstimate,
    SphereMapEval,
    angle_of,
    birkhoff_lambda,
    circle_D,
    circle_G,
    classify_regimes,
    g_fixed_points,
    histogram_G,
    periodic_orbits_G,
    rho_closed_form,
    rho_sampled,
    sphere_eval,
)
from .sweep import (
    GridMode,
    GridResult,
    GridSpec,
    mix_seed,
    sweep_asymptotic,
    sweep_measure,
    write_grid_csv,
    write_grid_pgm,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CONTINUITY_TOL",
    "CONV_RADIUS",
    "CertificateStatus",
    "DIV_RADIUS",
    "DegenerateImageError",
    "EPS_ANGLE",
    "EPS_GEOM",
    "EigenPair2",
    "GFixedPoint",
    "Ga92Verdict",
    "GridMode",
    "GridResult",
    "GridSpec",
    "MeasureEstimate",
    "NormalForm2D",
    "ORBIT_BUDGET",
    "OrbitStatus",
    "OrbitVerdict",
    "PWLMap",
    "PeriodicOrbit",
    "RegimeError",
    "RegimeReport",
    "RhoEstimate",
    "SphereMapEval",
    "StarPolygon",
    "SubAction",
    "ZeroImageError",
    "analyze",
    "angle_of",
    "birkhoff_lambda",
    "circle_D",
    "circle_G",
    "classify_regimes",
    "containment_protrusion",
    "delta_sequence",
    "eig2",
    "eval_pwl",
    "g_fixed_points",
    "ga92",
    "histogram_G",
    "image_polygon",
    "mix_seed",
    "orbit",
    "periodic_orbits_G",
    "perturbed_map",
    "rho_closed_form",
    "rho_sampled",
    "separated_from_gamma",
    "sphere_eval",
    "sub_action",
    "sweep_asymptotic",
    "sweep_measure",
    "union_star",
    "write_grid_csv",
    "write_grid_pgm",
    "write_polygon_csv",
]
