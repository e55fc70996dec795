"""The stability certificate (sub-action plus arc check), the polygon layer
as an independent oracle for its regions, and the layer's supporting
invariants."""

import functools
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from pwlstab import (
    EPS_GEOM,
    CertificateStatus,
    NormalForm2D,
    RegimeError,
    StarPolygon,
    arcs,
    containment_protrusion,
    delta_sequence,
    ga92,
    image_polygon,
    periodic_orbits_G,
    polygons,
    rho_sampled,
    sphere,
    sub_action,
    union_star,
)

from conftest import (
    FOLD_THETA_LAMBDA,
    P3_EXPANDING,
    P3_EXPANDING_LAMBDA,
    PT_CONTRACT,
    PT_STABLE,
    PT_UNSTABLE,
)
from regions import certified_region

# A cell of the 16x8 acceptance plane that ga92 leaves NotDecided: its arc
# graph ends at a positive cycle at n = 8192 whose word is too long to test.
PT_UNDECIDED = (0.4666666666666667, 1.4, -2.0, -1.2)


def plane_verdicts():
    """(params, verdict) at the 88 in-regime cells of the 16x8 acceptance
    plane, row-major with tau_L outer."""
    out = []
    for tl in np.linspace(0.0, 3.5, 16):
        for tr in np.linspace(-2.0, 1.0, 8):
            params = NormalForm2D(float(tl), 1.4, float(tr), -1.2)
            if params.tau_L < params.left_spiral_bound:
                out.append((params, ga92(params)))
    return out


def cycle_root(params, n):
    """The primitive root of the side word (1 = R, arc i < n / 2) of the
    positive cycle at which sub_action(params, n) ends."""
    sa = sub_action(params, n)
    word = [1 if i < n // 2 else 0 for i in sa.cycle]
    q = min(q for q in range(1, len(word) + 1) if word == word[q:] + word[:q])
    return word[:q]


def assert_forward_orbit(params, orbit, word):
    # walk the orbit forward with the map's own step from its first angle:
    # each side is the word's symbol (up to a rotation of the word; a point
    # on the switching ray may take either side), each image lands within
    # 1e-7 of the next listed angle, the stretches multiply to the
    # multiplier and their mean log is positive
    p = orbit.period
    assert len(word) == p
    th = orbit.thetas
    x, y = math.cos(th[0]), math.sin(th[0])
    sides, stretch = [], []
    for i in range(p):
        sides.append((1 if x > 0.0 else 0) if abs(x) > 1e-9 else None)
        x, y = params.step_scalar(x, y)
        d = math.hypot(x, y)
        stretch.append(d)
        x, y = x / d, y / d
        assert abs(math.atan2(y, x) - th[(i + 1) % p]) <= 1e-7
    assert any(
        all(s is None or s == c for s, c in zip(sides, word[k:] + word[:k])) for k in range(p)
    )
    assert math.prod(stretch) == pytest.approx(orbit.multiplier, rel=1e-9)
    assert orbit.lambda_value == pytest.approx(math.log(orbit.multiplier) / p, rel=1e-9)
    assert orbit.lambda_value > 0.0


class TestVerdicts:
    def test_stable_point(self):
        v = ga92(NormalForm2D(*PT_STABLE))
        assert v.status is CertificateStatus.STABLE
        assert v.m == 1 and v.k is None
        assert v.witness is None
        assert v.containment_residuals[-1] < 0.0

    def test_instability_witness(self):
        v = ga92(NormalForm2D(*PT_UNSTABLE))
        assert v.status is CertificateStatus.INSTABILITY_WITNESS
        assert v.witness is not None
        assert v.witness.period == 3
        assert v.witness.lambda_value == pytest.approx(0.03, abs=5e-3)
        assert v.witness.lambda_value == pytest.approx(P3_EXPANDING_LAMBDA, abs=1e-8)
        assert sorted(v.witness.thetas) == pytest.approx(
            sorted(P3_EXPANDING), abs=1e-9
        )
        assert v.witness.multiplier == pytest.approx(
            math.exp(3.0 * v.witness.lambda_value), rel=1e-12
        )

    def test_contracting_point(self):
        v = ga92(NormalForm2D(*PT_CONTRACT))
        assert v.status is CertificateStatus.STABLE
        assert v.m <= 3

    def test_scan_builds_no_orbit_that_cannot_expand(self, monkeypatch):
        # the witness scan drops every word and eigenvalue whose orbit cannot
        # have lambda above LAMBDA_POS_TOL before building an eigenray.  A scan
        # of every word with no floor builds 256 eigenrays at PT_CONTRACT, 428
        # at PT_STABLE and 316 at PT_UNSTABLE, where the screen and the floor
        # must still leave the period-3 witness's eigenrays
        calls = []
        eigenray = sphere._eigenray

        def counted(*args):
            calls.append(args)
            return eigenray(*args)

        monkeypatch.setattr(sphere, "_eigenray", counted)
        for pt in (PT_CONTRACT, PT_STABLE):
            assert ga92(NormalForm2D(*pt)).status is CertificateStatus.STABLE
            assert len(calls) == 0
        v = ga92(NormalForm2D(*PT_UNSTABLE))
        assert v.status is CertificateStatus.INSTABILITY_WITNESS
        assert v.witness.period == 3
        assert 1 <= len(calls) <= 3

    def test_given_scan_gives_the_same_verdict(self):
        # the 64x32 acceptance plane's in-regime cells, as a sweep hands
        # each one its scan
        cells = 0
        for tl in np.linspace(0.0, 3.5, 64):
            for tr in np.linspace(-2.0, 1.0, 32):
                params = NormalForm2D(float(tl), 1.4, float(tr), -1.2)
                if params.tau_L < params.left_spiral_bound:
                    scan = periodic_orbits_G(
                        params, polygons.WITNESS_P_MAX, polygons.LAMBDA_POS_TOL
                    )
                    assert repr(ga92(params, scan=scan)) == repr(ga92(params))
                    cells += 1
        assert cells == 1376

    def test_not_decided_within_budget(self):
        v = ga92(NormalForm2D(*PT_UNDECIDED))
        assert v.status is CertificateStatus.NOT_DECIDED
        assert v.m is None and v.k is None
        assert "cycle of positive weight" in v.note

    def test_trapped_but_not_cleared_cell_is_stable(self):
        # the generation loop trapped this cell at m = 3 but no iterate up
        # to Delta_63 cleared the unit segment; the sub-action needs none
        v = ga92(NormalForm2D(0.7, 1.4, -0.7142857142857144, -1.2))
        assert v.status is CertificateStatus.STABLE
        assert v.m == 1 and v.k is None
        assert v.containment_residuals[0] < 0.0

    @pytest.mark.parametrize(
        "pt, n_samples, orbit_budget",
        [
            ((-0.4613, 0.9460, -2.1263, -0.4840), 2000, 10_000),
            # lambda_hat is -0.00142 here, so an orbit needs about 15 000
            # steps at that rate to shrink by 1e-9, and the transients take
            # longer still: with 10 000 steps every sample stays undecided
            ((-0.0840, 0.8219, -2.1121, -0.8999), 64, 400_000),
            ((-0.5396, 1.8114, -1.0113, -0.7846), 2000, 10_000),
        ],
        ids=["pt0", "pt1", "pt2"],
    )
    def test_small_iterates_are_not_degenerate(self, pt, n_samples, orbit_budget):
        # tau_L < 0: the generations' inner radius drops to about 1e-13 while
        # the side matrices stay invertible, so an image must not count as a
        # collapse onto the origin
        params = NormalForm2D(*pt)
        v = ga92(params)
        assert v.status in (CertificateStatus.STABLE, CertificateStatus.NOT_DECIDED)
        delta_sequence(params, 30)
        if v.status is CertificateStatus.STABLE:
            est = rho_sampled(params, n_samples=n_samples, orbit_budget=orbit_budget, seed=0)
            assert est.rho_hat == 1.0
            assert est.undecided_fraction == 0.0

    @pytest.mark.parametrize(
        "pt",
        [
            (-1.0776586896746645, 0.8583293440774886, -1.4208927038059245, -0.15762718988548174),
            (-0.9793373454261421, 1.1856121950301048, -1.8723008141051143, -0.10923893706190468),
            (-0.91300769290359, 0.21510963595009863, -1.0174404909871324, -0.19367539190575722),
        ],
    )
    def test_lossy_union_points_are_stable(self, pt):
        # tau_L < 0 points where the accumulated union misses its own
        # generations by up to 7e-7; mapping that union fed the loss
        # forward, while the generations themselves decide these points
        params = NormalForm2D(*pt)
        assert ga92(params).status is CertificateStatus.STABLE
        est = rho_sampled(params, n_samples=2000, seed=0)
        assert est.rho_hat == 1.0
        assert est.undecided_fraction == 0.0

    def test_notes_explain_the_verdict(self):
        v = ga92(NormalForm2D(*PT_STABLE))
        assert v.note == (
            "sub-action at n = 2048 after 5 rounds: "
            "|g^t x| <= C*exp(-1e-06*t)*|x| with C = 4.36269"
        )
        v = ga92(NormalForm2D(*PT_UNDECIDED))
        assert v.note == "arc graph at n = 8192 has a cycle of positive weight over 109 arcs"
        v = ga92(NormalForm2D(2.3, 1.4, -1.9, -1.2))
        assert v.note == (
            "periodic ray orbit of period 26 read off the arc graph's positive cycle at n = 2048"
        )

    def test_witness_read_off_a_positive_cycle(self):
        # no expanding orbit of period <= 8, but the positive cycle at
        # n = 2048 runs the word R R L^12 R L^11, whose orbit expands
        params = NormalForm2D(2.3, 1.4, -1.9, -1.2)
        assert all(o.lambda_value <= 0.0 for o in periodic_orbits_G(params, p_max=8))
        v = ga92(params)
        assert v.status is CertificateStatus.INSTABILITY_WITNESS
        assert v.witness.period == 26
        assert v.witness.lambda_value == pytest.approx(0.13544, abs=1e-5)
        assert_forward_orbit(params, v.witness, cycle_root(params, 2048))

    def test_stable_note_shows_the_run_eta(self, monkeypatch):
        monkeypatch.setattr(arcs, "SUB_ACTION_ETA", 1e-5)
        params = NormalForm2D(*PT_STABLE)
        assert sub_action(params, 2048).eta == 1e-5
        v = ga92(params)
        assert v.status is CertificateStatus.STABLE
        assert "C*exp(-1e-05*t)" in v.note

    def test_budget_note_without_the_cycle_search(self, monkeypatch):
        monkeypatch.setattr(arcs, "CYCLE_CHECK_EVERY", arcs.SUB_ACTION_ROUNDS + 1)
        v = ga92(NormalForm2D(2.3, 1.4, -1.9, -1.2))
        assert v.status is CertificateStatus.NOT_DECIDED
        assert v.note == "no sub-action within the round budget at n = 8192"

    def test_ladder_moves_on_after_a_cycle(self):
        # a positive cycle at n = 2048 rules out a sub-action there only;
        # the finer graph at 8192 has none
        params = NormalForm2D(0.3333333333333333, 1.4, -1.903225806451613, -1.2)
        assert sub_action(params, 2048).cycle is not None
        v = ga92(params)
        assert v.status is CertificateStatus.STABLE
        assert v.note.startswith("sub-action at n = 8192 after 73 rounds: ")

    def test_failed_recheck_is_not_decided(self, monkeypatch):
        # with eta = 1e-8 the sub-action still converges at n = 2048, but its
        # decay rate is smaller than the chord's dip, -ln cos(pi / 4096) =
        # 2.9e-7, so the region need not map into itself and the arc check
        # must refuse it
        monkeypatch.setattr(arcs, "SUB_ACTION_ETA", 1e-8)
        params = NormalForm2D(*PT_STABLE)
        assert sub_action(params, 2048).v is not None
        v = ga92(params)
        assert v.status is CertificateStatus.NOT_DECIDED
        assert v.m is None
        assert v.containment_residuals[0] == pytest.approx(2.84e-7, rel=0.01)
        assert v.note.startswith("sub-action at n = 2048 failed the arc check, slack ")

    def test_rejects_rotating_left_half(self):
        with pytest.raises(RegimeError, match="2\\*sqrt"):
            ga92(NormalForm2D(2.5, 1.4, -0.5, -1.2))

    def test_rejects_wrong_determinant_signs(self):
        with pytest.raises(RegimeError, match="delta"):
            ga92(NormalForm2D(1.0, -0.2, -0.5, -1.2))
        with pytest.raises(RegimeError, match="delta"):
            ga92(NormalForm2D(1.0, 0.2, -0.5, 1.2))


class TestAcceptancePlane:
    def test_outcomes_pinned(self):
        # (status, m, k) over the 88 in-regime cells of the 16x8 acceptance
        # plane, row-major with tau_L outer: 68 witness (3 of them read off
        # a positive cycle of the arc graph), 17 Stable and 3 NotDecided
        # cells.  A change that flips any verdict, m or k changes this digest.
        out = [(v.status.value, v.m, v.k) for _, v in plane_verdicts()]
        assert len(out) == 88
        counts = Counter(status for status, _, _ in out)
        assert counts == {"InstabilityWitness": 68, "Stable": 17, "NotDecided": 3}
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == "359318cb80e3e2f1836aeba57fd7e525ed844ba685d20dd5e5b411fbdf93a0b2"

    def test_cycle_witnesses_recheck(self):
        # every witness read off a positive cycle, re-checked by a forward
        # orbit of the map itself: its sides follow the cycle's word, it
        # closes, its multiplier is the product of the stretches and it
        # expands
        periods = []
        for params, v in plane_verdicts():
            if "positive cycle" in v.note and v.witness is not None:
                n = int(v.note.rsplit("n = ", 1)[1])
                assert_forward_orbit(params, v.witness, cycle_root(params, n))
                periods.append(v.witness.period)
        assert sorted(periods) == [10, 13, 14]

    def test_decision_path_uses_no_polygon_images(self, monkeypatch):
        # the arc check alone decides: with the polygon layer disabled, the
        # polygon type included, ga92 still gives the pinned outcomes
        def disabled(*args, **kwargs):
            raise AssertionError("polygon layer called on the decision path")

        for name in ("image_polygon", "union_star", "containment_protrusion", "StarPolygon"):
            monkeypatch.setattr(polygons, name, disabled)
        self.test_outcomes_pinned()

    def test_certified_regions_pass_the_recheck(self):
        # every Stable cell's region maps into itself under the polygon
        # layer, an oracle independent of the arc check, and the residual
        # is the smallest arc slack, negated
        protrusions = []
        for params, v in plane_verdicts():
            if v.status is CertificateStatus.STABLE:
                omega = certified_region(params, v)
                protrusions.append(containment_protrusion(omega, image_polygon(params, omega)))
                assert v.note.startswith("sub-action at n = 2048 ")
                slack = sub_action(params, 2048).slack
                assert v.containment_residuals == (-slack.min(),)
        assert len(protrusions) == 17
        assert max(protrusions) < 0.0


class TestVerdictInvariants:
    def test_stable_certificate_recheck(self):
        # replay the certified fact from the returned region: it maps into
        # itself under the polygon layer, and the residual is the smallest
        # arc slack, negated, with room above the rounding margin
        params = NormalForm2D(*PT_STABLE)
        v = ga92(params)
        omega = certified_region(params, v)
        assert containment_protrusion(omega, image_polygon(params, omega)) < 0.0
        sa = sub_action(params, 2048)
        assert v.containment_residuals == (-sa.slack.min(),)
        assert -v.containment_residuals[0] > sa.slack_margin

    def test_large_constant_needs_no_scaled_threshold(self):
        # C = 4.6e4 here, so Omega's smallest radius is 2e-5, where a radial
        # protrusion in absolute terms shows almost no room (-4.1e-11); the
        # slack is in logs and reads the same room as anywhere else
        params = NormalForm2D(2.3058, 1.3338, -0.5749, -1.4860)
        v = ga92(params)
        assert v.status is CertificateStatus.STABLE
        assert 4.5e4 < float(v.note.rsplit("C = ", 1)[1]) < 4.7e4
        assert -1e-6 <= v.containment_residuals[0] <= -7e-7

    def test_monotone_absorption(self):
        # once trapped, adding the next image changes nothing
        params = NormalForm2D(*PT_STABLE)
        v = ga92(params)
        omega = certified_region(params, v)
        grown = union_star(omega, image_polygon(params, omega))
        assert containment_protrusion(grown, omega) <= EPS_GEOM
        assert containment_protrusion(omega, grown) <= EPS_GEOM

    def test_absorption_where_a_segment_grazes_a_corner(self):
        # Omega's image passes within 1 ulp of one of Omega's corners here;
        # an envelope that let a strict win drop such a corner lost up to
        # 0.087 of radius
        params = NormalForm2D(1.9080925437571834, 1.4, -0.35480293933389817, -1.2)
        v = ga92(params)
        assert v.status is CertificateStatus.STABLE
        omega = certified_region(params, v)
        grown = union_star(omega, image_polygon(params, omega))
        assert containment_protrusion(grown, omega) <= EPS_GEOM
        assert containment_protrusion(omega, grown) <= EPS_GEOM

    @pytest.mark.parametrize(
        "pt, m, bound",
        [
            ((-0.91300769290359, 0.21510963595009863, -1.0174404909871324,
              -0.19367539190575722), 20, 1e-8),
            ((-0.44455672361609877, 0.20524169323351724, -0.2682237993003542,
              -0.9005284260270023), 30, 1e-5),
        ],
    )
    def test_union_keeps_nearly_radial_segments(self, pt, m, bound):
        # Omega_m = Delta_0 u ... u Delta_m must contain each Delta_i.  The
        # generations here have nearly radial segments (1e-10 rad wide), whose
        # line is ill-conditioned at their own ends: reading it there instead
        # of the end point's radius lost 7.2e-7 and 5.3e-2 of radius (the
        # protrusions now read 3.6e-9 and 2.0e-6)
        gens = delta_sequence(NormalForm2D(*pt), m)
        omega = functools.reduce(union_star, gens)
        assert max(containment_protrusion(omega, g) for g in gens) <= bound

    def test_verdict_scale_free(self):
        # the certified region's size cannot matter for a homogeneous map:
        # a scaled copy maps into itself too
        cases = [
            (PT_STABLE, CertificateStatus.STABLE),
            (PT_UNDECIDED, CertificateStatus.NOT_DECIDED),
        ]
        for pt, status in cases:
            params = NormalForm2D(*pt)
            v = ga92(params)
            assert v.status is status
            if v.status is CertificateStatus.STABLE:
                for alpha in (1e-12, 0.25, 4.0):
                    omega = certified_region(params, v).scaled(alpha)
                    assert containment_protrusion(omega, image_polygon(params, omega)) < 0.0

    def test_stable_point_has_fully_attracted_measure(self):
        est = rho_sampled(NormalForm2D(*PT_STABLE), n_samples=2000, seed=5)
        assert est.rho_hat == 1.0
        assert est.undecided_fraction == 0.0


class TestDeltaSequence:
    def test_zeroth_is_seed_triangle(self):
        ds = delta_sequence(NormalForm2D(*PT_STABLE), 0)
        assert len(ds) == 1
        tri = StarPolygon.unit_triangle()
        assert np.allclose(ds[0].angles, tri.angles)
        assert np.allclose(ds[0].radii, tri.radii)

    def test_first_image_at_fold_point(self):
        ds = delta_sequence(NormalForm2D(2.5, 1.4, -0.5, -1.2), 1)
        assert len(ds) == 2
        assert np.allclose(ds[1].angles, [0.0, FOLD_THETA_LAMBDA], atol=1e-12)
        assert np.allclose(ds[1].radii, [1.0, 1.3], atol=1e-12)

    def test_vertex_growth_bounded(self):
        # one switching line adds at most two cut vertices per step
        ds = delta_sequence(NormalForm2D(*PT_STABLE), 8)
        lens = [len(d.angles) for d in ds]
        assert all(b - a <= 2 for a, b in zip(lens, lens[1:]))

    def test_deep_iterates_of_contracting_point(self):
        # both |det| are 0.2: after many steps the images are tiny but
        # not degenerate
        ds = delta_sequence(NormalForm2D(*PT_CONTRACT), 40)
        assert len(ds) == 41
        assert 0.0 < ds[-1].area() < 1e-20

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            delta_sequence(NormalForm2D(*PT_STABLE), -1)
