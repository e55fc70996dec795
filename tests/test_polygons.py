"""Star-polygon geometry: construction, union envelope, containment, images."""

import math

import numpy as np
import pytest

from pwlstab import NormalForm2D, PWLMap, eval_pwl
from pwlstab.polygons import (
    EPS_GEOM,
    DegenerateImageError,
    StarPolygon,
    containment_protrusion,
    image_polygon,
    separated_from_gamma,
    union_star,
)

from conftest import (
    FOLD_THETA_LAMBDA,
    PT_CONTRACT,
    PT_FOLD,
    PT_STABLE,
    PT_UNSTABLE,
)

HALF_PI = math.pi / 2


def chain(angles, radii) -> StarPolygon:
    return StarPolygon(np.asarray(angles, float), np.asarray(radii, float))


class TestConstruction:
    def test_unit_triangle(self):
        tri = StarPolygon.unit_triangle()
        assert np.allclose(tri.angles, [0.0, HALF_PI])
        assert np.allclose(tri.radii, [1.0, 1.0])
        assert tri.area() == pytest.approx(0.5, abs=1e-15)
        # edge x + y = 1 in polar form
        assert tri.radius_at(math.pi / 4) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_rejects_bad_chains(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            chain([1.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            chain([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="0, pi"):
            chain([0.0, 4.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="nonempty"):
            chain([], [])
        with pytest.raises(ValueError, match="matching"):
            chain([0.0, 1.0], [1.0])

    def test_scaled(self):
        tri = StarPolygon.unit_triangle()
        big = tri.scaled(3.0)
        assert np.allclose(big.radii, 3.0)
        assert big.area() == pytest.approx(9.0 * tri.area(), abs=1e-12)
        with pytest.raises(ValueError):
            tri.scaled(0.0)


class TestRadiusAt:
    def test_jump_edge_takes_outer_value(self):
        # equal adjacent angles encode a radial edge; the ray hits its far end
        j = chain([0.0, math.pi / 4, math.pi / 4, HALF_PI], [1.0, 1.0, 2.0, 2.0])
        assert j.radius_at(math.pi / 4) == pytest.approx(2.0, abs=1e-12)
        assert j.radius_at(math.pi / 4 - 1e-6) == pytest.approx(1.0, abs=1e-5)
        assert j.radius_at(math.pi / 4 + 1e-6) == pytest.approx(2.0, abs=1e-5)

    def test_outside_support_is_zero(self):
        tri = StarPolygon.unit_triangle()
        assert tri.radius_at(2.0) == 0.0

    def test_vectorized(self):
        tri = StarPolygon.unit_triangle()
        phis = np.linspace(0.0, HALF_PI, 17)
        vals = tri.radius_at(phis)
        assert vals.shape == phis.shape
        assert np.allclose(vals, [tri.radius_at(float(t)) for t in phis], atol=1e-15)


class TestUnion:
    def test_absorbs_subset(self):
        tri = StarPolygon.unit_triangle()
        u = union_star(tri, tri.scaled(0.5))
        assert np.allclose(u.angles, tri.angles, atol=1e-12)
        assert np.allclose(u.radii, tri.radii, atol=1e-12)

    def test_mirror_triangles_make_fan(self):
        tri = StarPolygon.unit_triangle()
        refl = chain([HALF_PI, math.pi], [1.0, 1.0])
        u = union_star(tri, refl)
        assert np.allclose(u.angles, [0.0, HALF_PI, math.pi], atol=1e-12)
        assert np.allclose(u.radii, [1.0, 1.0, 1.0], atol=1e-12)

    def test_commutative(self):
        a = chain([0.0, 0.9, 2.0], [1.0, 2.0, 0.5])
        b = chain([0.3, 1.4, 3.0], [1.5, 0.4, 2.0])
        u1 = union_star(a, b)
        u2 = union_star(b, a)
        assert np.allclose(u1.angles, u2.angles, atol=1e-12)
        assert np.allclose(u1.radii, u2.radii, atol=1e-12)

    def test_crossing_boundaries_yield_exact_envelope(self):
        # the two outer edges cross near pi/4; the union must switch edges
        # there, so its radial function equals the pointwise max everywhere
        a = chain([0.0, HALF_PI], [1.4, 0.7])
        b = chain([0.0, HALF_PI], [0.7, 1.4])
        u = union_star(a, b)
        phis = np.linspace(0.0, HALF_PI, 101)
        want = np.maximum(a.radius_at(phis), b.radius_at(phis))
        assert np.allclose(u.radius_at(phis), want, atol=1e-12)
        assert containment_protrusion(u, a) <= 0.0 + 1e-12
        assert containment_protrusion(u, b) <= 0.0 + 1e-12

    def test_touching_supports_make_jump_pair(self):
        u = union_star(chain([0.0, 1.0], [1.0, 1.0]), chain([1.0, 2.0], [2.0, 2.0]))
        assert np.array_equal(u.angles, [0.0, 1.0, 1.0, 2.0])
        assert np.allclose(u.radii, [1.0, 1.0, 2.0, 2.0], rtol=0, atol=1e-15)

    def test_points_inside_other_segments_add_nothing(self):
        # every point of b lies strictly inside a segment of a, so the union
        # is a itself: no grid angle of b survives
        a = chain([0.0, 1.0, 2.0], [2.0, 2.5, 2.0])
        b = chain([0.2, 0.5, 0.9, 1.3, 1.8], [1.0, 1.5, 0.8, 1.9, 1.2])
        for u in (union_star(a, b), union_star(b, a)):
            assert np.array_equal(u.angles, a.angles)
            assert np.array_equal(u.radii, a.radii)

    def test_point_next_to_dropped_crossing_is_kept(self):
        # the chains cross inside a cell narrower than 2 * ANGLE_TOL, so the
        # crossing is dropped; a's line through angle 1 must stay a point, or
        # the chord from b's spike to a's end would cut outside both chains
        a = chain([0.0, 2.0], [1.0, 1.0])
        b = chain([1.0 - 1.5e-12, 1.0], [5.0, 0.3])
        for u in (union_star(a, b), union_star(b, a)):
            assert u.radius_at(1.5) == pytest.approx(a.radius_at(1.5), rel=1e-12)
            assert containment_protrusion(u, a) <= 0.0
            assert containment_protrusion(u, b) <= 0.0
            phi = np.linspace(0.0, 2.0, 2001)
            top = np.maximum(a.radius_at(phi), b.radius_at(phi))
            assert np.all(u.radius_at(phi) <= top * (1.0 + 1e-12))

    def test_result_contains_both_inputs(self):
        a = chain([0.2, 1.1, 1.1, 2.9], [0.8, 1.7, 0.9, 1.2])
        b = chain([0.0, 0.7, 2.2], [1.1, 0.3, 2.5])
        u = union_star(a, b)
        assert containment_protrusion(u, a) <= EPS_GEOM
        assert containment_protrusion(u, b) <= EPS_GEOM


class TestContainment:
    def test_homothety(self):
        tri = StarPolygon.unit_triangle()
        assert containment_protrusion(tri, tri.scaled(0.99)) <= EPS_GEOM
        assert containment_protrusion(tri, tri.scaled(1.01)) > EPS_GEOM

    def test_protrusion_value(self):
        tri = StarPolygon.unit_triangle()
        assert containment_protrusion(tri, tri.scaled(1.5)) == pytest.approx(
            0.5, abs=1e-12
        )
        # the scan is sign-exact; its magnitude is the worst difference over
        # the candidate angles (here the chain corners, radius 1)
        assert containment_protrusion(tri, tri.scaled(0.25)) == pytest.approx(
            -0.75, abs=1e-12
        )

    def test_protrusion_across_jump_edge(self):
        region = chain([0.0, math.pi / 4, math.pi / 4, HALF_PI], [1.0, 1.0, 2.0, 2.0])
        poly = chain([0.5, 1.0], [1.5, 1.5])
        assert containment_protrusion(region, poly) == pytest.approx(
            0.5707762953932555, rel=1e-15
        )

    def test_protrusion_outside_support(self):
        # poly sticking out where the region has no support at all
        tri = StarPolygon.unit_triangle()
        left = chain([2.0, 3.0], [0.5, 0.5])
        assert containment_protrusion(tri, left) == pytest.approx(0.5, abs=1e-12)

    def test_empty_window(self):
        tri = StarPolygon.unit_triangle()
        assert containment_protrusion(tri, tri, window=(2.5, 3.0)) == -math.inf


class TestSeparation:
    def test_shrunk_triangle_clears(self):
        assert separated_from_gamma(StarPolygon.unit_triangle().scaled(0.1))

    def test_seed_triangle_touches(self):
        # the reference segment is a face of the seed triangle
        assert not separated_from_gamma(StarPolygon.unit_triangle())

    def test_left_half_region_is_vacuously_clear(self):
        assert separated_from_gamma(chain([2.0, 3.0], [5.0, 5.0]))


class TestImage:
    def test_right_half_triangle(self):
        # seed triangle lies in x >= 0, so only the right matrix acts
        img = image_polygon(NormalForm2D(*PT_FOLD), StarPolygon.unit_triangle())
        assert np.allclose(img.angles, [0.0, FOLD_THETA_LAMBDA], atol=1e-12)
        assert np.allclose(img.radii, [1.0, 1.3], atol=1e-12)

    def test_pure_scaling(self):
        two = 2.0 * np.eye(2)
        m = PWLMap(two, two, np.array([1.0, 0.0]))
        img = image_polygon(m, StarPolygon.unit_triangle())
        assert np.allclose(img.angles, [0.0, HALF_PI], atol=1e-15)
        assert np.allclose(img.radii, [2.0, 2.0], atol=1e-15)

    def test_ray_preservation(self):
        params = NormalForm2D(*PT_FOLD)
        poly = chain([0.0, 0.8, 2.1, 3.0], [1.0, 2.0, 1.5, 0.7])
        img = image_polygon(params, poly)
        m = params.pwl()
        for pt in poly.points:
            y = eval_pwl(m, pt)
            phi = math.atan2(y[1], y[0])
            r = math.hypot(y[0], y[1])
            assert img.radius_at(phi) >= r - 1e-9

    def test_area_law_single_side(self):
        # polygon within one half-plane: plain determinant scaling
        params = NormalForm2D(*PT_FOLD)
        poly = chain([0.1, 0.7, 1.4], [1.0, 2.0, 1.5])
        img = image_polygon(params, poly)
        assert img.area() == pytest.approx(
            abs(params.delta_R) * poly.area(), rel=1e-9
        )

    def test_area_law_straddling_equal_matrices(self):
        half = np.array([[0.5, 0.1], [0.0, 0.5]])
        m = PWLMap(half, half, np.array([1.0, 0.0]))
        poly = chain([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 1.0])
        img = image_polygon(m, poly)
        assert img.area() == pytest.approx(0.25 * poly.area(), rel=1e-9)

    def test_area_subadditive_when_pieces_overlap(self):
        # with delta_L > 0 > delta_R both half-planes map onto the upper
        # half-plane, so the two piece images overlap and the union can
        # only lose area against the determinant bookkeeping
        params = NormalForm2D(*PT_FOLD)
        poly = chain([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 1.0])
        img = image_polygon(params, poly)
        m = params.pwl()
        right = StarPolygon(*_slice(poly, 0.0, HALF_PI))
        left = StarPolygon(*_slice(poly, HALF_PI, math.pi))
        bound = abs(params.delta_R) * right.area() + params.delta_L * left.area()
        assert img.area() <= bound + 1e-9

    @pytest.mark.parametrize("s", [1e-20, 1e20])
    def test_image_commutes_with_scaling(self, s):
        # the map is homogeneous, so no threshold may depend on absolute size
        poly = chain([0.0, 0.8, 2.1, 3.0], [1.0, 2.0, 1.5, 0.7])
        for pt in (PT_FOLD, PT_STABLE, PT_UNSTABLE, PT_CONTRACT):
            params = NormalForm2D(*pt)
            img = image_polygon(params, poly)
            small = image_polygon(params, poly.scaled(s))
            assert np.allclose(small.angles, img.angles, rtol=0, atol=1e-12)
            assert np.allclose(small.radii, s * img.radii, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("phi", [0.3, 2.0, HALF_PI])
    @pytest.mark.parametrize("r", [1.0, 1e-10])
    def test_single_ray(self, phi, r):
        # a ray in x > 0 takes the right matrix and one in x <= 0 the
        # left, as in NormalForm2D.step, at any radius
        params = NormalForm2D(2.0, 1.4, -0.8, -1.2)
        img = image_polygon(params, chain([phi], [r]))
        x, y = params.step_scalar(r * math.cos(phi), r * math.sin(phi))
        assert img.angles.size == 1
        assert img.angles[0] == pytest.approx(math.atan2(y, x), abs=1e-12)
        assert img.radii[0] == pytest.approx(math.hypot(x, y), rel=1e-12)

    def test_degenerate_image_rejected(self):
        rank1 = np.array([[1.0, 1.0], [1.0, 1.0]])
        m = PWLMap(rank1, rank1, np.array([1.0, 0.0]))
        with pytest.raises(DegenerateImageError):
            image_polygon(m, StarPolygon.unit_triangle())

    def test_image_leaving_upper_half_plane_rejected(self):
        a_r = np.array([[1.0, 0.0], [0.0, -1.0]])
        a_l = np.array([[1.0, 0.0], [5.0, -1.0]])
        m = PWLMap(a_l, a_r, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="upper half"):
            image_polygon(m, StarPolygon.unit_triangle())


def _slice(poly: StarPolygon, lo: float, hi: float):
    """Clip a chain to [lo, hi] by sampling plus exact cut points."""
    phis = [lo] + [float(a) for a in poly.angles if lo < a < hi] + [hi]
    phis = np.asarray(phis)
    return phis, np.maximum(poly.radius_at(phis), 1e-300)
