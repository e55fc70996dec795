"""Star regions for re-checks: the one behind a ``Stable`` verdict, and the
unit triangle's images.

``ga92`` keeps no polygon: the tests that map a certified region with the
polygon layer rebuild it from the sub-action here.  The oracle constants in
``conftest.py`` stay free of the package, since ``bench/test_reference.py``
reads them too.
"""

import re

import numpy as np

from pwlstab import sub_action
from pwlstab.polygons import StarPolygon, image_polygon


def certified_region(params, verdict) -> StarPolygon:
    """The star region with radius exp(-(v_i - min v)) on arc i.

    The sub-action is ``sub_action(params, n)`` at the n that the verdict's
    note names.  Each arc contributes its two ends at its own radius; where
    two arcs meet, equal radii share one point and different radii make a
    jump pair.  The largest radius is 1.
    """
    n = int(re.match(r"sub-action at n = (\d+) ", verdict.note).group(1))
    sa = sub_action(params, n)
    rho = np.exp(-(sa.v - sa.v.min()))
    ang = np.repeat(sa.graph.edges, 2)[1:-1]
    rad = np.repeat(rho, 2)
    keep = np.append(True, (np.diff(ang) != 0.0) | (np.diff(rad) != 0.0))
    return StarPolygon(ang[keep], rad[keep])


def generations(params, n: int) -> list[StarPolygon]:
    """The unit triangle (0,0), (1,0), (0,1) and its first n images."""
    out = [StarPolygon.unit_triangle()]
    for _ in range(n):
        out.append(image_polygon(params, out[-1]))
    return out
