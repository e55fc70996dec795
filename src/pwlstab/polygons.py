"""Star-shaped polygon geometry, and the stability certificate ``ga92``.

``ga92`` builds no geometry: it combines the witness scan
(``sphere.periodic_orbits_G``) with a sub-action of the arc graph of the
circle map (``arcs.sub_action``), which bounds |g^t x| by C exp(-eta t)
|x|, and one inequality per arc shows that the star region with radius
exp(-(v_i - min v)) on arc i maps into itself; where the arc graph has a
cycle of positive weight instead, it tests the cycle's word of sides for an
expanding periodic orbit with the scan's own test.  The geometry here serves
the ``polygons`` command, where ``delta_sequence`` grows the seed triangle
(0,0), (1,0), (0,1) by repeated images, and the tests, which map that
region as a check independent of the arc inequality.  Positive
homogeneity keeps every region star-shaped about the origin, so regions
are stored as a radial boundary chain r(phi) over an angular support
inside [0, pi], and union / containment / separation all reduce to
comparing one-dimensional radial functions.

A chain is a sequence of boundary points at non-decreasing angles; two
consecutive points may share an angle, encoding a radial jump edge (these
appear as soon as regions with different supports are united).  The filled
region is {r u(phi) : 0 <= r <= r(phi)} plus the origin, where r(phi) is the
upper envelope of the chain segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DegenerateImageError, RegimeError
from .arcs import sub_action
from .maps import HALF_PI, NormalForm2D, PWLMap
from .sphere import (
    PeriodicOrbit, eigenvalue_floor, periodic_orbits_G, rotation_products, word_orbits,
)

EPS_GEOM = 1e-9
ANGLE_TOL = 1e-12

# A candidate positive Birkhoff sum this small is treated as zero when the
# periodic orbits are searched for instability witnesses.
LAMBDA_POS_TOL = 1e-9
# Longest period searched for an instability witness.
WITNESS_P_MAX = 8
# Longest primitive word read off a positive cycle of the arc graph and
# tested as a witness; longer words lose the orbit to rounding.
CYCLE_WORD_MAX = 64


def _cross(ax: float, ay: float, bx: float, by: float) -> float:
    return ax * by - ay * bx


@dataclass(frozen=True)
class StarPolygon:
    """Star-shaped region about the origin, as a radial boundary chain.

    ``angles`` are non-decreasing in [0, pi]; ``radii`` are positive.  The
    polygon's vertex loop is the origin followed by the chain points, so the
    origin always lies on the boundary (the regions this package iterates
    never surround it).
    """

    angles: np.ndarray
    radii: np.ndarray

    def __post_init__(self) -> None:
        ang = np.asarray(self.angles, dtype=float).copy()
        rad = np.asarray(self.radii, dtype=float).copy()
        if ang.ndim != 1 or ang.shape != rad.shape or ang.size == 0:
            raise ValueError("angles and radii must be matching nonempty 1-D arrays")
        if np.any(np.diff(ang) < -ANGLE_TOL):
            raise ValueError("chain angles must be non-decreasing")
        if np.any(ang < -1e-9) or np.any(ang > math.pi + 1e-9):
            raise ValueError("chain angles must lie in [0, pi]")
        if np.any(rad <= 0.0) or not np.all(np.isfinite(rad)):
            raise ValueError("chain radii must be positive and finite")
        np.clip(ang, 0.0, math.pi, out=ang)
        np.maximum.accumulate(ang, out=ang)  # absorb sub-tolerance inversions
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "radii", rad)

    # -- construction -----------------------------------------------------

    @classmethod
    def unit_triangle(cls) -> "StarPolygon":
        """The seed triangle (0,0), (1,0), (0,1)."""
        return cls(np.array([0.0, HALF_PI]), np.array([1.0, 1.0]))

    # -- basic geometry ----------------------------------------------------

    @cached_property
    def points(self) -> np.ndarray:
        """Chain points in cartesian coordinates, shape (k, 2); computed once, read-only."""
        pts = np.column_stack(
            (self.radii * np.cos(self.angles), self.radii * np.sin(self.angles))
        )
        pts.flags.writeable = False
        return pts

    @property
    def vertices(self) -> np.ndarray:
        """Full polygon vertex loop: origin anchor followed by the chain."""
        return np.vstack(([0.0, 0.0], self.points))

    @property
    def support(self) -> tuple[float, float]:
        return float(self.angles[0]), float(self.angles[-1])

    def area(self) -> float:
        p = self.points
        return 0.5 * float(
            np.abs(np.sum(p[:-1, 0] * p[1:, 1] - p[1:, 0] * p[:-1, 1]))
        )

    def scaled(self, factor: float) -> "StarPolygon":
        if factor <= 0.0:
            raise ValueError("factor must be positive")
        return StarPolygon(self.angles.copy(), self.radii * factor)

    # -- radial evaluation ---------------------------------------------------

    @cached_property
    def _lines(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per segment j -> j+1: whether it is wider than ANGLE_TOL, and its
        line r(phi) = num / (ux * dy - uy * dx), as (wide, num, dx, dy).  The
        trailing entry stands for the missing segments j = -1 and j = k - 1."""
        ang, pts = self.angles, self.points
        wide = np.append(ang[1:] - ang[:-1] > ANGLE_TOL, False)
        x, y = pts[:, 0], pts[:, 1]
        num = np.append(x[:-1] * y[1:] - y[:-1] * x[1:], 0.0)
        dx, dy = np.append(x[1:] - x[:-1], 0.0), np.append(y[1:] - y[:-1], 0.0)
        return wide, num, dx, dy

    def _sides(
        self, phi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Boundary radius just below, just above and at each angle of ``phi``,
        and whether the chain has a point of its own there.

        Chain angles within ANGLE_TOL of a query angle count as that angle.
        A side reads exactly 0 where no segment wider than ANGLE_TOL lies on
        it, and the radius of the chain point at the angle where one does.
        The value at the angle is the largest radius of the chain points
        there, so it sees the outer end of a radial jump edge and a
        single-ray chain, or the spanning segment's value between points.
        """
        ang, rad = self.angles, self.radii
        first = np.searchsorted(ang, phi - ANGLE_TOL, "left")
        stop = np.searchsorted(ang, phi + ANGLE_TOL, "right")
        wide, num, dx, dy = self._lines
        ux, uy = np.cos(phi), np.sin(phi)
        here = first < stop
        last = stop - 1
        r_first, r_last = rad.take(first, mode="clip"), rad[last]

        # At a chain point a side reads that point's own radius, since the
        # line of a nearly radial segment is ill-conditioned at its ends.
        def side(j: np.ndarray, own: np.ndarray) -> np.ndarray:
            ok = wide[j]
            den = np.where(ok, ux * dy[j] - uy * dx[j], 1.0)
            return np.where(ok, np.where(here, own, num[j] / den), 0.0)

        # Below: the segment ending at the first chain point at phi, or
        # spanning phi.  Above: the one starting at the last point there.
        below = side(first - 1, r_first)
        above = side(last, r_last)
        at = np.where(here, np.maximum(r_first, r_last), below)
        for offset in range(1, int(np.max(stop - first, initial=0)) - 1):
            i = first + offset
            inner = i < last
            at[inner] = np.maximum(at[inner], rad[i[inner]])
        return below, above, at, here

    def radius_at(self, phi):
        """Radial extent of the closed region along the ray at angle phi.

        At a jump angle this is the larger of the two one-sided limits; far
        from the support it is 0.  Accepts scalars or arrays.
        """
        at = self._sides(np.atleast_1d(np.asarray(phi, dtype=float)))[2]
        return float(at[0]) if np.isscalar(phi) else at


def _grid(lo: float, hi: float, *chains: StarPolygon) -> np.ndarray:
    """Sorted chain angles in [lo, hi] and both ends, one per ANGLE_TOL cluster.

    Between consecutive grid angles every chain is a single straight segment
    or empty.
    """
    v = np.sort(np.concatenate([c.angles for c in chains] + [np.array([lo, hi])]))
    v = v[(v >= lo - ANGLE_TOL) & (v <= hi + ANGLE_TOL)]
    return v[np.append(True, np.diff(v) > ANGLE_TOL)]


def union_star(a: StarPolygon, b: StarPolygon) -> StarPolygon:
    """Union of two star regions, as the upper envelope of their radial chains.

    On the merged angle grid both boundaries are single straight segments
    inside each cell, so the envelope takes the larger one-sided radius of
    the two chains at every grid angle, one point where the two sides agree
    to 1e-11 relative and a jump pair where they do not.  It can switch
    chains only at one interior crossing per cell, placed exactly from the
    four radii at the cell's ends; a crossing within ANGLE_TOL of a cell end
    is dropped.  A grid angle where one chain has no point of its own and
    beats the other on both sides by more than 1e-12 relative lies inside
    that chain's straight segment, so the envelope runs through it and emits
    nothing there, unless a cell next to it lost its crossing; near ties
    keep the point.  So the union's points are input chain points plus
    crossings, with no pruning pass.  Supports must overlap or touch (a
    union with a gap of empty angles would not be star-shaped with one
    chain).
    """
    a0, a1 = a.support
    b0, b1 = b.support
    if max(a0, b0) > min(a1, b1) + 10 * ANGLE_TOL:
        raise ValueError("angular supports are disjoint; union is not a star chain")
    grid = _grid(min(a0, b0), max(a1, b1), a, b)
    a_below, a_above, _, a_here = a._sides(grid)
    b_below, b_above, _, b_here = b._sides(grid)
    below = np.maximum(a_below, b_below)
    above = np.maximum(a_above, b_above)

    def beats(p_below, p_above, q_below, q_above) -> np.ndarray:
        return (p_below - q_below > 1e-12 * p_below) & (p_above - q_above > 1e-12 * p_above)

    through = (~a_here & beats(a_below, a_above, b_below, b_above)) | (
        ~b_here & beats(b_below, b_above, a_below, a_above)
    )
    one = np.abs(below - above) <= 1e-11 * np.maximum(below, above)

    # The envelope switches chains inside a cell only where the difference
    # changes sign there; the crossing is where the lines through each
    # chain's radii at the two ends of the cell meet.
    cross_phi = np.zeros_like(grid)
    cross_r = np.zeros_like(grid)
    cells = np.nonzero((a_above[:-1] - b_above[:-1]) * (a_below[1:] - b_below[1:]) < 0.0)[0]
    if cells.size:
        u0 = np.array([np.cos(grid[cells]), np.sin(grid[cells])])
        u1 = np.array([np.cos(grid[cells + 1]), np.sin(grid[cells + 1])])
        pa0, pa1 = a_above[cells] * u0, a_below[cells + 1] * u1
        pb0, pb1 = b_above[cells] * u0, b_below[cells + 1] * u1
        da, db = pa1 - pa0, pb1 - pb0
        qx, qy = pa0 + _cross(*(pb0 - pa0), *db) / _cross(*da, *db) * da
        phi = np.arctan2(qy, qx)
        inside = (grid[cells] + ANGLE_TOL < phi) & (phi < grid[cells + 1] - ANGLE_TOL)
        cross_phi[cells[inside]] = phi[inside]
        cross_r[cells[inside]] = np.hypot(qx, qy)[inside]
        # Beyond a cell whose crossing is dropped the next kept point lies on
        # the other chain, so the envelope cannot run through either end.
        lost = cells[~inside]
        through[lost] = through[lost + 1] = False

    # (below, above, crossing) per grid angle, in that order.  The grid ends
    # lie at the ends of the supports, where the outer sides read 0; a
    # missing crossing reads 0 too.  A NaN is kept, for StarPolygon to reject.
    ang = np.column_stack((grid, grid, cross_phi))
    rad = np.column_stack((np.where(one, np.maximum(below, above), below), above, cross_r))
    keep = np.column_stack((~through, ~(through | one), np.ones_like(one))) & ~(rad <= 0.0)
    return StarPolygon(ang[keep], rad[keep])


def containment_protrusion(
    region: StarPolygon, poly: StarPolygon, window: tuple[float, float] | None = None
) -> float:
    """Worst radial excess of ``poly`` over ``region``.

    Non-positive means poly is contained (within tolerance); the value is the
    maximum of r_poly - r_region over the merged angle grid of both chains,
    comparing the values at each grid angle and both one-sided limits inside
    the compared band.  Between consecutive grid angles both boundaries are
    straight segments, and two distinct lines cross at most once, so the
    difference cannot become positive strictly inside a cell while being
    non-positive at both ends.  ``window`` restricts the comparison to an
    angular band (used for the separating-segment test).  Returns -inf when
    there is nothing to compare.
    """
    lo, hi = poly.support
    if window is not None:
        lo, hi = max(lo, window[0]), min(hi, window[1])
        if hi < lo - ANGLE_TOL:
            return -math.inf
    if hi < lo:
        lo = hi = 0.5 * (lo + hi)

    grid = _grid(lo, hi, poly, region)
    p_below, p_above, p_at, _ = poly._sides(grid)
    r_below, r_above, r_at, _ = region._sides(grid)
    excess = (p_at - r_at, (p_below - r_below)[1:], (p_above - r_above)[:-1])
    return float(np.concatenate(excess).max())


_GAMMA = StarPolygon.unit_triangle()


def separated_from_gamma(poly: StarPolygon) -> bool:
    """Whether the region stays radially clear of the segment (1,0)-(0,1).

    The segment is the outer edge of the seed triangle, spanning angles
    [0, pi/2].  A star region touches it exactly when its radial function
    reaches the segment's radial function somewhere on that band, so
    separation is max(r_poly - r_segment) <= -EPS_GEOM over the band
    (vacuously true when the supports do not meet).
    """
    excess = containment_protrusion(_GAMMA, poly, window=(0.0, HALF_PI))
    return excess <= -EPS_GEOM


def _resolve_matrices(m: NormalForm2D | PWLMap) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(m, NormalForm2D):
        m = m.pwl()
    if not isinstance(m, PWLMap):
        raise TypeError("expected NormalForm2D or PWLMap")
    if m.dim != 2:
        raise ValueError("polygon images are implemented for planar maps only")
    if abs(m.normal[1]) > 1e-12 or m.normal[0] <= 0.0:
        raise ValueError("polygon images require the switching line x = 0")
    return m.A_left, m.A_right


def _transform_chain(
    angles: np.ndarray, radii: np.ndarray, a: np.ndarray
) -> StarPolygon:
    """Image of a star sub-chain under one invertible matrix.

    The image of the sector spanned by the chain is again a sector of width
    below pi, so image angles are monotone in the chain order (reversed when
    the matrix flips orientation).
    """
    pts = np.column_stack((radii * np.cos(angles), radii * np.sin(angles))) @ a.T
    r = np.hypot(pts[:, 0], pts[:, 1])
    src_area = 0.5 * abs(
        float(np.sum(radii[:-1] * radii[1:] * np.sin(np.diff(angles))))
    )
    # Relative to the piece's own scale: the map is homogeneous, so deep
    # iterates may be small in absolute terms without any collapse.  A piece
    # with area is one not thinner than EPS_GEOM against its squared radius.
    has_area = src_area > EPS_GEOM * float(np.max(radii)) ** 2
    if np.any(r <= 1e-12 * radii):
        if has_area:
            raise DegenerateImageError("matrix collapsed a polygon piece onto the origin")
        r = np.maximum(r, 1e-300)
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    ang[np.abs(ang) <= ANGLE_TOL] = 0.0
    if np.any(ang < 0.0) or np.any(ang > math.pi + ANGLE_TOL):
        raise ValueError(
            "piece image leaves the upper half-plane; map outside the supported regime"
        )
    if ang.size >= 2 and ang[-1] < ang[0]:
        ang = ang[::-1]
        r = r[::-1]
    out = StarPolygon(ang, r)
    # The area ratio of a piece under one matrix is |det|.
    if has_area and out.area() < EPS_GEOM * src_area:
        raise DegenerateImageError("near-singular matrix: image area collapsed")
    return out


def image_polygon(m: NormalForm2D | PWLMap, poly: StarPolygon) -> StarPolygon:
    """Set image of a star region under the piecewise map.

    The region is cut along the switching ray at angle pi/2; the x >= 0 piece
    is mapped by the right matrix, the x <= 0 piece by the left one (they
    agree on the cut by continuity), and the two image stars are united.
    The image of a star region equals the image of its boundary chain filled
    radially, again by homogeneity.
    """
    a_left, a_right = _resolve_matrices(m)
    ang, rad = poly.angles, poly.radii
    lo, hi = poly.support
    # Chain points within ANGLE_TOL of the switching ray belong to both halves.
    to_right = ang <= HALF_PI + ANGLE_TOL
    to_left = ang >= HALF_PI - ANGLE_TOL
    r_ang, r_rad = ang[to_right], rad[to_right]
    l_ang, l_rad = ang[to_left], rad[to_left]
    spans_right = lo < HALF_PI - ANGLE_TOL
    spans_left = hi > HALF_PI + ANGLE_TOL
    if spans_right and spans_left and not np.any(to_right & to_left):
        # An edge crosses the ray: both halves end at its one point there.
        cut = poly.radius_at(HALF_PI)
        r_ang, r_rad = np.append(r_ang, HALF_PI), np.append(r_rad, cut)
        l_ang, l_rad = np.append(HALF_PI, l_ang), np.append(cut, l_rad)
    pieces: list[StarPolygon] = []
    if spans_right and r_ang.size > 1:
        pieces.append(_transform_chain(r_ang, r_rad, a_right))
    if spans_left and l_ang.size > 1:
        pieces.append(_transform_chain(l_ang, l_rad, a_left))
    if not pieces:
        # A single ray: the x <= 0 rule of NormalForm2D.step picks its side.
        a = a_left if lo >= HALF_PI else a_right
        return _transform_chain(poly.angles, poly.radii, a)
    if len(pieces) == 1:
        return pieces[0]
    return union_star(pieces[0], pieces[1])


class CertificateStatus(Enum):
    STABLE = "Stable"
    NOT_DECIDED = "NotDecided"
    INSTABILITY_WITNESS = "InstabilityWitness"


@dataclass(frozen=True)
class Ga92Verdict:
    """Outcome of the stability certificate.

    A ``Stable`` verdict rests on a sub-action of the arc graph of G whose
    star region maps into itself: ``m`` is 1, and ``containment_residuals``
    holds -min(``SubAction.slack``), negative where the region has room.
    The region is not kept; ``sub_action(params, n)`` at the n that the
    note names rebuilds it.  Other verdicts have m = None, and ``k`` is
    always None.  An instability witness is a periodic ray orbit with
    positive average log-stretch, which rules out Lyapunov stability; its
    note says whether the witness scan found it or it was read off a
    positive cycle of the arc graph, and at which n.  A ``NotDecided`` note
    names its reason: a failed arc check, a cycle of positive weight in the
    arc graph at the last arc count that gave no witness, the round budget,
    or a bound of ln D on some arc that is not finite.
    """

    status: CertificateStatus
    m: int | None = None
    k: int | None = None
    witness: PeriodicOrbit | None = None
    containment_residuals: tuple[float, ...] = ()
    note: str = ""


# Arc counts tried for a sub-action, in order; the arc check needs
# eta + ln cos(pi / 2n) > 0, which holds from n = 2048 on.
SUB_ACTION_ARCS = (2048, 8192)


def ga92(params: NormalForm2D, *, scan: list[PeriodicOrbit] | None = None) -> Ga92Verdict:
    """Decide asymptotic stability of the origin on the unit circle.

    Requires delta_L > 0 > delta_R and tau_L < 2*sqrt(delta_L).  First
    searches the periodic ray orbits of period <= WITNESS_P_MAX for an
    instability witness (``_best_witness``); the scan skips each word and
    eigenvalue whose orbit could not be one (``sphere.eigenvalue_floor``).
    A caller that has scanned the map already (a sweep scans its cells in
    batches) passes that scan, ``periodic_orbits_G(params, WITNESS_P_MAX,
    LAMBDA_POS_TOL)``, as ``scan``.  Without a witness it tries a
    sub-action of the arc graph of G (``sub_action``) on SUB_ACTION_ARCS
    arcs in turn.  The first one found bounds |g^t x| by C exp(-eta t) |x|
    with C = exp(max v - min v).
    The verdict is Stable with m = 1 if the slack of every arc exceeds its
    rounding margin, so that the star region with radius exp(-(v_i - min
    v)) on arc i maps into itself, and NotDecided if not.

    A cycle of positive weight is read as a word of sides and tested for an
    expanding periodic orbit (``_cycle_witness``); one found is returned as
    an instability witness at once, at either arc count.  Otherwise a cycle
    or an exhausted round budget moves on to the next arc count; after the
    last one the verdict is NotDecided, and its note names the cycle or
    budget.
    """
    if not params.in_sign_regime:
        raise RegimeError("certificate requires delta_L > 0 and delta_R < 0")
    if not params.in_certificate_regime:
        raise RegimeError("certificate requires tau_L < 2*sqrt(delta_L) (rotating left half)")
    if scan is None:
        scan = periodic_orbits_G(params, p_max=WITNESS_P_MAX, lambda_min=LAMBDA_POS_TOL)
    witness = _best_witness(scan)
    if witness is not None:
        return Ga92Verdict(
            CertificateStatus.INSTABILITY_WITNESS,
            witness=witness,
            note="periodic ray orbit with positive average log-stretch",
        )

    for n in SUB_ACTION_ARCS:
        sa = sub_action(params, n)
        if sa.rounds == 0:
            # no run: tau^2 overflows at every n, so no larger n helps
            note = f"arc graph at n = {n} has a bound of ln D that is not finite"
            return Ga92Verdict(CertificateStatus.NOT_DECIDED, note=note)
        if sa.v is None:
            witness = None if sa.cycle is None else _cycle_witness(params, sa.cycle, n)
            if witness is not None:
                return Ga92Verdict(
                    CertificateStatus.INSTABILITY_WITNESS,
                    witness=witness,
                    note=(
                        f"periodic ray orbit of period {witness.period} read off the "
                        f"arc graph's positive cycle at n = {n}"
                    ),
                )
            continue
        slack = float(sa.slack.min())
        if not slack > sa.slack_margin:
            status, m = CertificateStatus.NOT_DECIDED, None
            note = f"sub-action at n = {n} failed the arc check, slack {slack:.3g}"
        else:
            status, m = CertificateStatus.STABLE, 1
            note = (
                f"sub-action at n = {n} after {sa.rounds} rounds: |g^t x| <= "
                f"C*exp(-{sa.eta:g}*t)*|x| with C = {math.exp(sa.v.max() - sa.v.min()):.6g}"
            )
        return Ga92Verdict(status, m, containment_residuals=(-slack,), note=note)
    if sa.cycle is not None:
        note = f"arc graph at n = {n} has a cycle of positive weight over {sa.cycle.size} arcs"
    else:
        note = f"no sub-action within the round budget at n = {n}"
    return Ga92Verdict(CertificateStatus.NOT_DECIDED, note=note)


def _cycle_witness(params: NormalForm2D, cycle: np.ndarray, n: int) -> PeriodicOrbit | None:
    """The most expanding periodic ray orbit whose itinerary is the word of
    a cycle of the arc graph on n arcs, or None.

    Arc i is on the right side (R) when i < n / 2.  The word is reduced to
    its primitive root, and only a root longer than WITNESS_P_MAX, which
    the Lyndon scan has not tried, and at most CYCLE_WORD_MAX long is
    tested, with its rotation products from ``rotation_products``; its
    orbit needs lambda above LAMBDA_POS_TOL, and eigenvalues that cannot
    give one are skipped by the same floor as the Lyndon scan.
    """
    word = (cycle < n // 2).astype(int).tolist()
    p = len(word)
    q = next(q for q in range(1, p + 1) if p % q == 0 and word[q:] + word[:q] == word)
    if not WITNESS_P_MAX < q <= CYCLE_WORD_MAX:
        return None
    root = word[:q]
    sides = ((params.tau_L, params.delta_L), (params.tau_R, params.delta_R))
    return _best_witness(word_orbits(
        sides, root, rotation_products(sides, root), eigenvalue_floor(q, LAMBDA_POS_TOL)
    ))


def _best_witness(orbits: list[PeriodicOrbit]) -> PeriodicOrbit | None:
    """The orbit with the largest lambda above LAMBDA_POS_TOL (the first on a tie), or None."""
    witnesses = [o for o in orbits if o.lambda_value > LAMBDA_POS_TOL]
    return max(witnesses, key=lambda o: o.lambda_value, default=None)


def delta_sequence(params: NormalForm2D | PWLMap, n: int) -> list[StarPolygon]:
    """[seed, image, image^2, ..., image^n] of the unit triangle."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = [StarPolygon.unit_triangle()]
    for _ in range(n):
        out.append(image_polygon(params, out[-1]))
    return out


def write_polygon_csv(polys: list[StarPolygon], path) -> None:
    """Dump polygon vertex loops as CSV rows (generation, vertex_index, x, y)."""
    with open(path, "w", newline="\n") as fh:
        fh.write("generation,vertex_index,x,y\n")
        for g, poly in enumerate(polys):
            for i, (x, y) in enumerate(poly.vertices):
                fh.write(f"{g},{i},{float(x)!r},{float(y)!r}\n")
