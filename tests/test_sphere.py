"""Radial/angular decomposition: D, G, averages, fixed points, periodic orbits."""

import dataclasses
import hashlib
import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    FOLD_LAM_L_MINUS,
    FOLD_LAM_L_PLUS,
    FOLD_LAM_R_PLUS,
    FOLD_THETA_L_MINUS,
    FOLD_THETA_L_PLUS,
    FOLD_THETA_LAMBDA,
    FOLD_THETA_R_PLUS,
    P3_CONTRACTING,
    P3_CONTRACTING_LAMBDA,
    P3_EXPANDING,
    P3_EXPANDING_LAMBDA,
    PT_CONTRACT,
    PT_CYCLING,
    PT_FOLD,
    PT_STABLE,
    PT_UNSTABLE,
    STABLE_LAM_R_PLUS,
    STABLE_THETA_R_PLUS,
    UNSTABLE_FP,
    UNSTABLE_FP_MULT,
)

from pwlstab import (
    NormalForm2D,
    RegimeError,
    ZeroImageError,
    angle_of,
    birkhoff_lambda,
    circle_D,
    circle_G,
    classify_regimes,
    eval_pwl,
    g_fixed_points,
    histogram_G,
    arcs,
    periodic_orbits_G,
    sphere,
    sphere_eval,
    sub_action,
)
from pwlstab.arcs import CYCLE_CHECK_EVERY, SUB_ACTION_ROUNDS
from pwlstab.maps import HALF_PI
from pwlstab.polygons import LAMBDA_POS_TOL
from pwlstab.sphere import (
    MU_FLOOR_SLACK,
    N_BATCHES,
    _block_length,
    _lyndon_words,
    _scan_plan,
    _word_table,
    eigenvalue_floor,
    rotation_products,
    word_orbits,
)

# Block length 1 (one step may stretch by 1e7) and no float state repeats.
PT_BLOCK_1 = (1.0, 1e7, 2.0, -1e7)
# The cells of the 16x8 acceptance plane where the witness scan finds no
# expanding orbit of period <= 8 and the arc graph ends at a positive cycle
# at both arc counts.  ga92 reads a witness off the cycle at three of them
# and leaves the other three NotDecided.
UNDECIDED_CELLS = [
    (0.4666666666666667, 1.4, -2.0, -1.2),
    (0.9333333333333333, 1.4, -1.1428571428571428, -1.2),
    (1.4, 1.4, -2.0, -1.2),
    (2.3333333333333335, 1.4, -2.0, -1.2),
    (2.3333333333333335, 1.4, -1.5714285714285714, -1.2),
    (2.3333333333333335, 1.4, -1.1428571428571428, -1.2),
]


# Near a fixed ray: the orbit of L R^7 has the largest measured gap between
# its multiplier and its word's eigenvalue, 4.3e-6 relative.
PT_ILL_CONDITIONED = (
    0.6404717297751334, 1.2009115042619274, -2.9441373850425046, -0.20118191848618605,
)


def u(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def unmemoised_lambda(params, z0, n, burn_in):
    """birkhoff_lambda's block loop with no memo, one ``step_scalar`` at a
    time: the reference that the memoised loop must match exactly."""
    z = np.asarray(z0, dtype=float)
    z = z / float(np.linalg.norm(z))
    zx, zy = float(z[0]), float(z[1])
    block = _block_length(params)

    def log_stretch(steps):
        nonlocal zx, zy
        total = 0.0
        while steps > 0:
            k = min(block, steps)
            wx, wy = zx, zy
            for _ in range(k):
                wx, wy = params.step_scalar(wx, wy)
            d = math.hypot(wx, wy)
            total += math.log(d)
            zx, zy = wx / d, wy / d
            steps -= k
        return total

    log_stretch(burn_in)
    batches = min(N_BATCHES, n)
    size = n // batches
    sums = [log_stretch(size) for _ in range(batches)]
    lambda_hat = math.fsum(sums + [log_stretch(n - batches * size)]) / n
    std_error = float("nan")
    if batches > 1:
        std_error = float(np.std(np.array(sums) / size, ddof=1) / math.sqrt(batches))
    return lambda_hat, std_error


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


class TestSphereEval:
    def test_matches_direct_evaluation(self):
        m = NormalForm2D(*PT_FOLD).pwl()
        z = u(0.3)
        ev = sphere_eval(m, z)
        w = eval_pwl(m, z)
        assert ev.d_value == pytest.approx(np.linalg.norm(w), rel=1e-15)
        assert np.allclose(ev.g_point, w / np.linalg.norm(w))

    def test_requires_unit_vector(self):
        m = NormalForm2D(*PT_FOLD).pwl()
        with pytest.raises(ValueError):
            sphere_eval(m, np.array([1.0, 1.0]))
        for bad in (math.nan, math.inf, -math.inf):
            for z in ([bad, 0.0], [0.0, bad], [bad, bad]):
                with pytest.raises(ValueError, match="unit vector"):
                    sphere_eval(m, np.array(z))
        # a norm that overflows is refused, not warned about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unit vector"):
                sphere_eval(m, np.array([1e200, 0.0]))

    def test_image_norm_does_not_overflow(self):
        # |image|^2 overflows, |image| does not
        m = NormalForm2D(1e200, 1.4, -0.5, -1.2).pwl()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = sphere_eval(m, np.array([-1.0, 0.0]))
        assert ev.d_value == pytest.approx(1e200, rel=1e-15)
        assert math.hypot(*ev.g_point) == pytest.approx(1.0, abs=1e-15)

    def test_zero_image_error(self):
        from pwlstab import PWLMap

        a_left = np.array([[1.0, 0.0], [0.0, 0.0]])
        a_right = np.zeros((2, 2))
        m = PWLMap(a_left, a_right, np.array([1.0, 0.0]))
        with pytest.raises(ZeroImageError):
            sphere_eval(m, np.array([0.0, 1.0]))

    def test_angle_of(self):
        assert angle_of(np.array([1.0, 0.0])) == 0.0
        assert angle_of(np.array([0.0, 1.0])) == pytest.approx(math.pi / 2)
        assert angle_of(np.array([-1.0, 0.0])) == 0.0  # pi folds to 0
        # the negative x-axis folds from both sides of zero
        assert angle_of(np.array([-1.0, -0.0])) == 0.0
        assert angle_of(np.array([-1.0, -1e-13])) == 0.0
        assert angle_of(np.array([1.0, -1e-13])) == 0.0
        with pytest.raises(ValueError):
            angle_of(np.array([0.0, -1.0]))
        for bad in (math.nan, math.inf, -math.inf):
            for p in ([bad, 1.0], [1.0, bad], [bad, bad]):
                with pytest.raises(ValueError, match="finite"):
                    angle_of(np.array(p))


class TestCircleMaps:
    def test_g_pi_half_is_exactly_zero(self):
        for pt in (PT_FOLD, PT_STABLE, PT_UNSTABLE):
            g = circle_G(NormalForm2D(*pt), math.pi / 2)
            assert g == 0.0 and math.copysign(1.0, g) == 1.0

    def test_matches_sphere_eval(self):
        # dual route: scalar closed form vs generic vector evaluation
        params = NormalForm2D(*PT_STABLE)
        m = params.pwl()
        for theta in np.linspace(0.0, math.pi - 1e-9, 113):
            ev = sphere_eval(m, u(theta))
            assert circle_D(params, theta) == pytest.approx(ev.d_value, rel=1e-12)
            assert circle_G(params, theta) == pytest.approx(
                angle_of(ev.g_point), rel=0, abs=1e-12
            )

    def test_d_closed_form(self):
        params = NormalForm2D(*PT_FOLD)
        theta = 0.4  # right side
        c, s = math.cos(theta), math.sin(theta)
        expected = math.hypot(params.tau_R * c + s, params.delta_R * c)
        assert circle_D(params, theta) == pytest.approx(expected, rel=1e-15)

    def test_monotone_on_each_branch(self):
        # left branch (det > 0) increases, right branch (det < 0) decreases
        params = NormalForm2D(*PT_STABLE)
        right = np.linspace(1e-6, math.pi / 2 - 1e-6, 2000)
        left = np.linspace(math.pi / 2 + 1e-6, math.pi - 1e-6, 2000)
        assert np.all(np.diff(circle_G(params, right)) < 0)
        assert np.all(np.diff(circle_G(params, left)) > 0)

    def test_angle_domain_enforced(self):
        params = NormalForm2D(*PT_FOLD)
        with pytest.raises(ValueError):
            circle_G(params, -0.1)
        with pytest.raises(ValueError):
            circle_D(params, math.pi + 0.1)
        for bad in (math.nan, math.inf, -math.inf):
            for theta in (bad, np.array([0.3, bad])):
                with pytest.raises(ValueError, match="angles"):
                    circle_G(params, theta)
                with pytest.raises(ValueError, match="angles"):
                    circle_D(params, theta)
            with pytest.raises(ValueError, match="angles"):
                histogram_G(params, theta0=bad, n=10)

    def test_regime_enforced_for_G(self):
        with pytest.raises(RegimeError):
            circle_G(NormalForm2D(2.0, -1.4, -0.8, -1.2), 0.3)
        # D needs no sign regime
        assert circle_D(NormalForm2D(2.0, -1.4, -0.8, -1.2), 0.3) > 0

    def test_vectorized_matches_scalar(self):
        params = NormalForm2D(*PT_UNSTABLE)
        grid = np.linspace(0.0, math.pi - 1e-9, 57)
        gv = circle_G(params, grid)
        dv = circle_D(params, grid)
        for t, g, d in zip(grid, gv, dv):
            assert circle_G(params, float(t)) == g
            assert circle_D(params, float(t)) == d
        # pinned bit for bit
        assert _sha256(gv) == "4a6372f04f04da70b63b67e473dfda689e20f8c10623a1de2ad187feac0e1431"
        assert _sha256(dv) == "4f67e421905c87249d0a435b3b21f4874d6410925a49f3323f88c8e12e4d62a9"


class TestFixedPoints:
    def test_fold_point_oracles(self):
        fps = g_fixed_points(NormalForm2D(*PT_FOLD))
        assert [fp.side for fp in fps] == ["right", "left", "left"]
        thetas = [fp.theta for fp in fps]
        mults = [fp.multiplier for fp in fps]
        assert thetas[0] == pytest.approx(FOLD_THETA_R_PLUS, abs=1e-12)
        assert thetas[1] == pytest.approx(FOLD_THETA_L_MINUS, abs=1e-12)
        assert thetas[2] == pytest.approx(FOLD_THETA_L_PLUS, abs=1e-12)
        assert mults[0] == pytest.approx(FOLD_LAM_R_PLUS, abs=1e-12)
        assert mults[1] == pytest.approx(FOLD_LAM_L_MINUS, abs=1e-12)
        assert mults[2] == pytest.approx(FOLD_LAM_L_PLUS, abs=1e-12)

    def test_fixed_points_are_fixed(self):
        for pt in (PT_FOLD, PT_STABLE, PT_UNSTABLE):
            params = NormalForm2D(*pt)
            for fp in g_fixed_points(params):
                assert circle_G(params, fp.theta) == pytest.approx(fp.theta, abs=1e-9)
                assert circle_D(params, fp.theta) == pytest.approx(
                    fp.multiplier, rel=1e-12
                )

    def test_rotating_left_side_has_single_right_ray(self):
        fps = g_fixed_points(NormalForm2D(*PT_STABLE))
        assert len(fps) == 1
        assert fps[0].side == "right"
        assert fps[0].theta == pytest.approx(STABLE_THETA_R_PLUS, abs=1e-12)
        assert fps[0].multiplier == pytest.approx(STABLE_LAM_R_PLUS, abs=1e-12)

    def test_invariant_rays_scale_by_multiplier(self):
        params = NormalForm2D(*PT_FOLD)
        m = params.pwl()
        for fp in g_fixed_points(params):
            u = np.array([math.cos(fp.theta), math.sin(fp.theta)])
            img = eval_pwl(m, u)
            assert np.allclose(img, fp.multiplier * u, rtol=1e-9, atol=1e-12)


class TestClassifyRegimes:
    def test_fold_point(self):
        rep = classify_regimes(NormalForm2D(*PT_FOLD))
        assert rep.left_regime == "two_fixed_points"
        assert rep.left_fixed_points == pytest.approx(
            (FOLD_THETA_L_MINUS, FOLD_THETA_L_PLUS), abs=1e-12
        )
        # radial multiplier 0.87 < 1, but with tau_R < 0 the co-eigenvalue
        # dominates, so the ray repels nearby angles
        assert not rep.right_attracting
        assert rep.theta_Lambda == pytest.approx(FOLD_THETA_LAMBDA, abs=1e-12)
        assert rep.lambda_invariant
        assert not rep.lambda_absorbing

    def test_rotating_point(self):
        rep = classify_regimes(NormalForm2D(*PT_STABLE))
        assert rep.left_regime == "complex_rotation"
        assert rep.left_fixed_points is None
        assert rep.lambda_absorbing

    def test_theta_lambda_is_image_of_zero(self):
        params = NormalForm2D(*PT_FOLD)
        rep = classify_regimes(params)
        assert rep.theta_Lambda == circle_G(params, 0.0)

    def test_requires_sign_regime(self):
        with pytest.raises(RegimeError):
            classify_regimes(NormalForm2D(2.0, 1.4, -0.8, 1.2))

    def test_boundary_tau_flagged(self):
        params = NormalForm2D(2.0 * math.sqrt(1.4), 1.4, -0.8, -1.2)
        rep = classify_regimes(params)
        assert rep.left_regime == "complex_rotation"
        assert any("boundary" in w or "degenerate" in w for w in rep.warnings)


class TestBirkhoff:
    def test_exact_at_fixed_ray(self):
        # started exactly on an invariant ray the average is ln(multiplier).
        # Only the ray of the dominant eigenvalue holds an orbit in floats:
        # the others repel nearby angles and rounding drifts off within a
        # few dozen steps, so test at theta_L_plus (multiplier 1.65).
        params = NormalForm2D(*PT_FOLD)
        fp = g_fixed_points(params)[2]
        assert fp.theta == pytest.approx(FOLD_THETA_L_PLUS, abs=1e-12)
        est = birkhoff_lambda(params, u(fp.theta), n=500, burn_in=50)
        assert est.lambda_hat == pytest.approx(math.log(fp.multiplier), abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-13)

    def test_deterministic(self):
        params = NormalForm2D(*PT_STABLE)
        a = birkhoff_lambda(params, u(0.5), n=20_000)
        b = birkhoff_lambda(params, u(0.5), n=20_000)
        assert a == b
        assert a.lambda_hat == -0.1588868440737838
        assert a.std_error == 0.0006139777611926286

    def test_factorization_consistency(self):
        # exp(sum ln D) must reproduce |g^n(z)| (checked at n = 60 here;
        # the acceptance suite pushes n to 200 over random parameters)
        params = NormalForm2D(*PT_UNSTABLE)
        m = params.pwl()
        z = u(0.9)
        x = z.copy()
        log_sum = 0.0
        for _ in range(60):
            ev = sphere_eval(m, x / np.linalg.norm(x))
            log_sum += math.log(ev.d_value)
            x = eval_pwl(m, x)
        assert np.linalg.norm(x) == pytest.approx(math.exp(log_sum), rel=1e-10)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            birkhoff_lambda(NormalForm2D(*PT_STABLE), u(0.3), n=0)

    def test_rejects_negative_burn_in(self):
        with pytest.raises(ValueError, match="burn_in"):
            birkhoff_lambda(NormalForm2D(*PT_STABLE), u(0.3), n=10, burn_in=-5)

    def test_rejects_a_zero_or_non_finite_start(self):
        params = NormalForm2D(*PT_STABLE)
        with pytest.raises(ValueError, match="nonzero"):
            birkhoff_lambda(params, [0.0, 0.0], n=10)
        for bad in (math.nan, math.inf, -math.inf):
            for z0 in ([bad, 0.0], [1.0, bad]):
                with pytest.raises(ValueError, match="finite"):
                    birkhoff_lambda(params, z0, n=10)

    def test_start_far_from_unit_length(self):
        # a huge or tiny finite start is scaled by a power of two before its
        # norm is taken, so the norm neither overflows nor underflows
        params = NormalForm2D(*PT_STABLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = birkhoff_lambda(params, [0.6, 0.8], n=1000)
            for k in (1020, -1000):
                assert birkhoff_lambda(params, np.ldexp([0.6, 0.8], k), n=1000) == want
            assert birkhoff_lambda(params, [1e-320, 0.0], n=1000) == birkhoff_lambda(
                params, [1.0, 0.0], n=1000
            )

    def test_block_length_follows_side_bounds(self):
        # PT_STABLE: the left bound sqrt(6.96) reaches 1e12 between 28 and 29 steps
        assert _block_length(NormalForm2D(*PT_STABLE)) == 28
        assert _block_length(NormalForm2D(*PT_UNSTABLE)) == 32
        assert _block_length(NormalForm2D(1e12, 1.0, 1e12, -1.0)) == 1
        assert _block_length(NormalForm2D(0.0, 1e-14, 0.0, -1e-14)) == 1

    @pytest.mark.parametrize(
        "params, expected",
        [
            ((1e12, 1.0, 1e12, -1.0), 27.631021115928544),
            ((1e10, 1.0, -1e10, -1.0), 23.02585092994045),
        ],
    )
    def test_scale_safe(self, params, expected):
        # one step stretches by ~1e12 or ~1e10, so a block of several
        # unnormalised steps would overflow; the per-step values are pinned
        est = birkhoff_lambda(NormalForm2D(*params), np.array([1.0, 0.0]), n=100_000)
        assert math.isfinite(est.lambda_hat)
        assert est.lambda_hat == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "params", [(1.0, 1.0, 0.0, 0.0), (0.0, 1e-14, 0.0, -1e-14)]
    )
    def test_kernel_hit_raises(self, params):
        # (1, 0) maps exactly to the origin, or to a vector of length 1e-14
        with pytest.raises(ZeroImageError):
            birkhoff_lambda(NormalForm2D(*params), np.array([1.0, 0.0]), n=1000)

    def test_single_step_has_no_error_bar(self):
        est = birkhoff_lambda(NormalForm2D(*PT_STABLE), u(0.5), n=1)
        assert math.isfinite(est.lambda_hat)
        assert math.isnan(est.std_error)

    def test_tail_steps_count_in_mean_only(self):
        # n = 150 makes 100 batches of one step and a tail of 50.  The
        # circle orbit at PT_CONTRACT is well conditioned over these steps,
        # so the generic per-step route gives the same logs to rounding.
        params = NormalForm2D(*PT_CONTRACT)
        m = params.pwl()
        z, logs = u(0.4), []
        for _ in range(150):
            ev = sphere_eval(m, z)
            logs.append(math.log(ev.d_value))
            z = ev.g_point
        logs = np.array(logs)
        est = birkhoff_lambda(params, u(0.4), n=150, burn_in=0)
        assert est.lambda_hat == pytest.approx(logs.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(logs[:100].std(ddof=1) / 10.0, rel=1e-12)
        assert est.std_error != pytest.approx(logs.std(ddof=1) / math.sqrt(150), rel=1e-3)

    @pytest.mark.parametrize(
        "point, theta, n",
        [
            # the start is on an orbit where 60 steps are well conditioned:
            # from u(0.9) any float route, per-step normalised or not, is
            # 2.7e-9 off the exact rational value of ln|g^60 z|
            (PT_UNSTABLE, P3_EXPANDING[0], 60),
            # 3200 steps run in blocks of 24 and 8 (32 per batch)
            (PT_FOLD, FOLD_THETA_L_PLUS + 0.01, 3200),
        ],
    )
    def test_sum_telescopes_to_log_norm(self, point, theta, n):
        # n * lambda_hat = ln|g^n z0| for a unit z0, with g^n from the generic
        # route; exact power-of-two rescaling keeps the iterate in range
        params = NormalForm2D(*point)
        m = params.pwl()
        x, exponent = u(theta), 0
        for _ in range(n):
            x = eval_pwl(m, x)
            _, e = math.frexp(float(np.abs(x).max()))
            x, exponent = np.ldexp(x, -e), exponent + e
        log_norm = math.log(float(np.linalg.norm(x))) + exponent * math.log(2.0)
        est = birkhoff_lambda(params, u(theta), n=n, burn_in=0)
        assert n * est.lambda_hat == pytest.approx(log_norm, rel=1e-10)


class TestBirkhoffMemo:
    @pytest.mark.parametrize(
        "point",
        [PT_CYCLING, PT_FOLD, PT_STABLE, (1e7, 1.0, 0.0, -1.0), PT_BLOCK_1],
        ids=["cycling", "fold", "stable", "block_1_cycling", "block_1"],
    )
    @pytest.mark.parametrize("n", [1, 150, 20_000])
    @pytest.mark.parametrize("burn_in", [0, 1000])
    def test_matches_unmemoised_loop(self, point, n, burn_in):
        params = NormalForm2D(*point)
        est = birkhoff_lambda(params, u(0.5), n=n, burn_in=burn_in)
        lambda_hat, std_error = unmemoised_lambda(params, u(0.5), n, burn_in)
        assert same_float(est.lambda_hat, lambda_hat)
        assert same_float(est.std_error, std_error)

    @pytest.fixture
    def stretch_steps(self, monkeypatch):
        """The steps of every ``NormalForm2D.log_stretch`` call, in order."""
        calls = []
        log_stretch = NormalForm2D.log_stretch

        def counted(self, x, y, steps, block):
            calls.append(steps)
            return log_stretch(self, x, y, steps, block)

        monkeypatch.setattr(NormalForm2D, "log_stretch", counted)
        return calls

    @pytest.mark.parametrize("burn_in", [0, 1000])
    def test_matches_unmemoised_loop_after_switch_off(self, burn_in, stretch_steps):
        # n = 100 000 at PT_STABLE: over 3600 blocks of 28 steps no batch
        # starts from the float state of an earlier one, so every batch runs
        params = NormalForm2D(*PT_STABLE)
        lambda_hat, std_error = unmemoised_lambda(params, u(0.5), 100_000, burn_in)
        stretch_steps.clear()
        est = birkhoff_lambda(params, u(0.5), n=100_000, burn_in=burn_in)
        assert _block_length(params) == 28
        assert stretch_steps == [burn_in] + [1000] * 100 + [0]
        assert same_float(est.lambda_hat, lambda_hat)
        assert same_float(est.std_error, std_error)

    def test_repeated_batches_are_not_recomputed(self, stretch_steps):
        # PT_CYCLING's third batch of 200 steps starts from the state its
        # second did, and so does every later one
        params = NormalForm2D(*PT_CYCLING)
        lambda_hat, std_error = unmemoised_lambda(params, u(0.5), 20_000, 0)
        stretch_steps.clear()
        est = birkhoff_lambda(params, u(0.5), n=20_000, burn_in=0)
        assert stretch_steps == [0, 200, 200, 0]
        assert same_float(est.lambda_hat, lambda_hat)
        assert same_float(est.std_error, std_error)

    def test_repeated_blocks_are_not_recomputed(self, stretch_steps):
        # after 1000 steps of burn-in the orbit has settled: the second
        # batch starts from the state the first did, so only the burn-in
        # and the first batch run, against 1000 + 100 * 200 steps
        params = NormalForm2D(*PT_CYCLING)
        birkhoff_lambda(params, u(0.5), n=20_000, burn_in=1000)
        assert _block_length(params) == 16
        assert stretch_steps == [1000, 200, 0]

    def test_memo_memory_is_bounded(self):
        # 200 000 blocks of one step, and no float state repeats: the batch
        # memo keeps at most 100 entries of three floats, about 5 kB at peak
        params = NormalForm2D(*PT_BLOCK_1)
        assert _block_length(params) == 1
        tracemalloc.start()
        try:
            birkhoff_lambda(params, u(0.5), n=200_000, burn_in=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestHistogram:
    def test_density_normalized(self):
        density, edges = histogram_G(NormalForm2D(*PT_STABLE), n=20_000, bins=100)
        widths = np.diff(edges)
        assert float(np.sum(density * widths)) == pytest.approx(1.0, abs=1e-9)
        assert edges[0] == 0.0 and edges[-1] == pytest.approx(math.pi)

    def test_mass_confined_to_invariant_sector(self):
        # at the fold point [0, theta_Lambda] is forward invariant, so an
        # orbit started inside never contributes mass beyond it
        params = NormalForm2D(*PT_FOLD)
        density, edges = histogram_G(params, theta0=0.2, n=5_000, bins=200)
        widths = np.diff(edges)
        outside = edges[:-1] >= FOLD_THETA_LAMBDA
        assert float(np.sum(density[outside] * widths[outside])) == 0.0
        assert float(np.sum(density * widths)) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        a = histogram_G(NormalForm2D(*PT_STABLE), n=5_000, bins=50)
        b = histogram_G(NormalForm2D(*PT_STABLE), n=5_000, bins=50)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert _sha256(a[0]) == "15e68ee5c92814a2971d082f956ab08cd241db6ed4fe82826cb6c1e489e5a0c8"


class TestPeriodicOrbits:
    def test_unstable_point_orbit_inventory(self):
        orbits = periodic_orbits_G(NormalForm2D(*PT_UNSTABLE), p_max=6)
        fixed = [o for o in orbits if o.period == 1]
        assert len(fixed) == 1
        assert fixed[0].thetas[0] == pytest.approx(UNSTABLE_FP, abs=1e-9)
        assert fixed[0].multiplier == pytest.approx(UNSTABLE_FP_MULT, abs=1e-9)

        p3 = [o for o in orbits if o.period == 3]
        assert len(p3) == 2
        lam = sorted(o.lambda_value for o in p3)
        assert lam[0] == pytest.approx(P3_CONTRACTING_LAMBDA, abs=1e-8)
        assert lam[1] == pytest.approx(P3_EXPANDING_LAMBDA, abs=1e-8)
        for orb, ref in zip(sorted(p3, key=lambda o: o.thetas[0]),
                            (P3_EXPANDING, P3_CONTRACTING)):
            assert sorted(orb.thetas) == pytest.approx(sorted(ref), abs=1e-9)

    def test_orbits_satisfy_dynamics(self):
        params = NormalForm2D(*PT_UNSTABLE)
        for orb in periodic_orbits_G(params, p_max=6):
            th = orb.thetas[0]
            d_sum = 0.0
            for _ in range(orb.period):
                d_sum += math.log(circle_D(params, th))
                th = circle_G(params, th)
            assert th == pytest.approx(orb.thetas[0], abs=1e-7)
            assert d_sum / orb.period == pytest.approx(orb.lambda_value, abs=1e-7)
            assert orb.multiplier == pytest.approx(
                math.exp(orb.period * orb.lambda_value), rel=1e-9
            )

    def test_fixed_rays_reported_as_period_one(self):
        params = NormalForm2D(*PT_FOLD)
        orbits = periodic_orbits_G(params, p_max=3)
        period1 = sorted(o.thetas[0] for o in orbits if o.period == 1)
        expected = sorted(fp.theta for fp in g_fixed_points(params))
        assert period1 == pytest.approx(expected, abs=1e-9)

    def test_periods_are_minimal(self):
        points = (
            PT_FOLD,
            PT_UNSTABLE,
            # tau_R = 0: G swaps 0 and pi/2, an orbit through the switching
            # ray that longer words trace again
            (1.0, 1.4, 0.0, -1.2),
            # tau_L = tau_R = 0: the word LLLLRR has a product 2.352 * I
            (0.0, 1.4, 0.0, -1.2),
            # two period-6 orbits 5e-4 apart
            (0.5916, 0.7480, -1.5024, -0.3868),
        )
        for pt in points:
            params = NormalForm2D(*pt)
            orbits = periodic_orbits_G(params, p_max=6)
            for orb in orbits:
                th = orb.thetas[0]
                for p in range(1, orb.period):
                    th = circle_G(params, th)
                    assert abs(th - orb.thetas[0]) > 1e-6
            for i, a in enumerate(orbits):
                for b in orbits[:i]:
                    assert a.period != b.period or max(
                        abs(x - y) for x, y in zip(a.thetas, b.thetas)
                    ) > 1e-6, f"orbit listed twice at {pt}: {a.thetas}"

    @pytest.mark.parametrize("pt", [PT_STABLE, PT_UNSTABLE, PT_CONTRACT])
    def test_word_product_table(self, pt):
        # every word of length <= 8 against the ordered product of its side
        # matrices, multiplied out entry by entry
        params = NormalForm2D(*pt)
        sides = ((params.tau_L, params.delta_L), (params.tau_R, params.delta_R))
        table = _word_table([sides], 8)
        ax, ay, bx, by = table[:, 0].tolist()

        def row(word):
            return (1 << len(word)) - 1 + sum(s << k for k, s in enumerate(word))

        for p in range(9):
            for word in itertools.product((0, 1), repeat=p):
                m = ((1.0, 0.0), (0.0, 1.0))
                for s in word:
                    tau, delta = sides[s]
                    a = ((tau, 1.0), (-delta, 0.0))
                    m = tuple(
                        tuple(a[i][0] * m[0][j] + a[i][1] * m[1][j] for j in range(2))
                        for i in range(2)
                    )
                r = row(word)
                assert (ax[r], ay[r], bx[r], by[r]) == (m[0][0], m[1][0], m[0][1], m[1][1])
        # the scan's plan reads each Lyndon word's rotations side by side:
        # rotation i, word[i:] + word[:i], at column start + i
        words, lengths, starts, rot_rows, rot_left, rot_word = _scan_plan(8)
        assert words == tuple(_lyndon_words(8))
        assert starts.tolist() == [sum(map(len, words[:w])) for w in range(len(words))]
        assert len(rot_rows) == sum(lengths) == sum(map(len, words))
        rot = table[:, 0, rot_rows]
        for w, (word, start) in enumerate(zip(words, starts.tolist())):
            cols = slice(start, start + len(word))
            assert rot_rows[cols].tolist() == [row(word[i:] + word[:i]) for i in range(len(word))]
            assert rot_left[cols].tolist() == [s == 0 for s in word]
            assert rot_word[cols].tolist() == [w] * len(word)
            # the products of a word's rotations, built all at once, equal
            # the rotation-ordered table's slice bit for bit
            got = rotation_products(sides, word)
            assert np.array(got).tobytes() == rot[:, cols].tobytes()

    def test_floored_scan_keeps_every_expanding_orbit(self):
        # the 16x8 acceptance plane, wide draws with tau_L < 0 too, and the
        # point where multiplier and eigenvalue differ most
        points = [
            (float(tl), 1.4, float(tr), -1.2)
            for tl in np.linspace(0.0, 3.5, 16)
            for tr in np.linspace(-2.0, 1.0, 8)
        ]
        rng = np.random.default_rng(11)
        for _ in range(2000):
            points.append((rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0),
                           rng.uniform(-4.0, 4.0), rng.uniform(-3.0, -0.05)))
        points.append(PT_ILL_CONDITIONED)
        expanding = 0
        for pt in points:
            params = NormalForm2D(*pt)
            full = [o for o in periodic_orbits_G(params, p_max=8)
                    if o.lambda_value > LAMBDA_POS_TOL]
            floored = periodic_orbits_G(params, p_max=8, lambda_min=LAMBDA_POS_TOL)
            kept = [o for o in floored if o.lambda_value > LAMBDA_POS_TOL]
            assert repr(kept) == repr(full), pt
            expanding += len(full)
        assert expanding > 3000

    def test_multiplier_matches_eigenvalue(self):
        # every orbit's multiplier is its word's eigenvalue to well within
        # the floor's slack, worst case included
        params = NormalForm2D(*PT_ILL_CONDITIONED)
        sides = ((params.tau_L, params.delta_L), (params.tau_R, params.delta_R))
        gaps = []
        for word in _lyndon_words(8):
            products = rotation_products(sides, word)
            ax, ay, bx, by = (col[0] for col in products)
            half_tr, det = 0.5 * (ax + by), ax * by - bx * ay
            if half_tr * half_tr < det:
                continue
            # the eigenvalues as word_orbits compares them with its floor
            mu1 = half_tr + math.copysign(math.sqrt(half_tr * half_tr - det), half_tr)
            mus = [m for m in (mu1, det / mu1) if m > 0.0]
            for orbit in word_orbits(sides, word, products):
                gaps.append(min(abs(orbit.multiplier / mu - 1.0) for mu in mus))
        assert len(gaps) == 18
        assert 1e-6 < max(gaps) <= MU_FLOOR_SLACK / 100

    def test_orbit_on_steep_branch_is_found(self):
        # G^6 is too steep near this orbit for a sampling grid to see it cross
        # the diagonal.
        params = NormalForm2D(0.968, 1.763, -2.392, -0.454)
        p6 = [o for o in periodic_orbits_G(params, p_max=6) if o.period == 6]
        hit = [o for o in p6 if abs(o.thetas[0] - 1.129603) < 1e-6]
        assert len(hit) == 1
        assert hit[0].lambda_value == pytest.approx(-1.4037, abs=1e-4)


ORACLE_CHUNK = 512  # cells whose products ``per_cell_scans`` holds at once


def per_cell_scans(cells, p_max, lambda_min):
    """The witness scan of each cell as written before cells were batched:
    every Lyndon word of a cell goes through ``word_orbits``, with no
    screen, and with the word's rotation products multiplied out as in
    ``rotation_products``, not read from the scan's rotation-ordered table.
    The products are built for ORACLE_CHUNK cells at once, word by word,
    with the same multiplies and adds in the same order as
    ``rotation_products``."""
    words = list(_lyndon_words(p_max))
    floors = [0.0 if lambda_min is None else eigenvalue_floor(p, lambda_min)
              for p in range(p_max + 1)]
    out = []
    for first in range(0, len(cells), ORACLE_CHUNK):
        chunk = cells[first : first + ORACLE_CHUNK]
        taus = np.array([[c.tau_L, c.tau_R] for c in chunk])
        neg_deltas = np.array([[-c.delta_L, -c.delta_R] for c in chunk])
        products = []  # per word, columns (ax, ay, bx, by) by cell and rotation
        for word in words:
            p = len(word)
            symbols = np.asarray(word)[(np.arange(p)[:, None] + np.arange(p)) % p]
            # rows (ax, bx) and (ay, by), one column per rotation of each cell
            x = np.zeros((2, len(chunk), p))
            y = np.zeros((2, len(chunk), p))
            x[0] = y[1] = 1.0
            for k in range(p):
                s = symbols[:, k]
                x, y = taus[:, s] * x + y, neg_deltas[:, s] * x
            products.append(np.stack((x[0], y[0], x[1], y[1])))
        for c, params in enumerate(chunk):
            sides = ((params.tau_L, params.delta_L), (params.tau_R, params.delta_R))
            orbits = []
            listed = {}  # orbit angles by period
            for word, table in zip(words, products):
                p = len(word)
                for orbit in word_orbits(sides, word, table[:, c].tolist(), floors[p]):
                    thetas = orbit.thetas
                    if any(p % q == 0 and sphere._same_angles(thetas, thetas[q:] + thetas[:q])
                           for q in range(1, p)):
                        continue  # a shorter word traces this orbit
                    same_period = listed.setdefault(p, [])
                    if any(sphere._same_angles(t, thetas) for t in same_period):
                        continue
                    same_period.append(thetas)
                    orbits.append(orbit)
            out.append(sorted(orbits, key=lambda o: (o.period, o.thetas[0])))
    return out


def scan_cells():
    """The 16x8 and 64x32 acceptance planes, 2000 wide sign-regime draws
    (tau_L < 0 too), cells with tau_R = 0, whose orbits pass through the
    switching ray pi/2 (at tau_L = 0 a word's product is a multiple of the
    identity), and four points of the orbit tests above."""
    cells = [
        (float(tl), 1.4, float(tr), -1.2)
        for nx, ny in ((16, 8), (64, 32))
        for tl in np.linspace(0.0, 3.5, nx)
        for tr in np.linspace(-2.0, 1.0, ny)
    ]
    rng = np.random.default_rng(11)
    for _ in range(2000):
        cells.append((rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0),
                      rng.uniform(-4.0, 4.0), rng.uniform(-3.0, -0.05)))
    cells += [(float(tl), dl, 0.0, -1.2) for dl in (1.0, 1.4) for tl in np.linspace(-2.0, 2.0, 9)]
    cells += [PT_FOLD, PT_UNSTABLE, PT_ILL_CONDITIONED, (0.5916, 0.7480, -1.5024, -0.3868)]
    return [NormalForm2D(*pt) for pt in cells]


class TestBatchedScan:
    @pytest.mark.parametrize("lambda_min", [None, LAMBDA_POS_TOL], ids=["all", "floored"])
    def test_matches_per_cell_scan(self, lambda_min):
        # a shuffled cell order, cut into batches of 1, 5 and 16 in turn
        cells = scan_cells()
        expected = [repr(orbits) for orbits in per_cell_scans(cells, 8, lambda_min)]
        order = np.random.default_rng(5).permutation(len(cells)).tolist()
        start, sizes = 0, itertools.cycle((1, 5, 16))
        while start < len(order):
            batch = order[start : start + next(sizes)]
            got = sphere.periodic_orbits_many([cells[k] for k in batch], 8, lambda_min)
            assert len(got) == len(batch)
            for k, orbits in zip(batch, got):
                assert repr(orbits) == expected[k], cells[k]
            start += len(batch)

    @pytest.mark.parametrize("lambda_min", [None, LAMBDA_POS_TOL], ids=["all", "floored"])
    def test_screen_drops_only_words_without_orbits(self, lambda_min):
        cells = scan_cells()
        floors = [0.0 if lambda_min is None else eigenvalue_floor(p, lambda_min)
                  for p in range(9)]
        words, _, starts, rot_rows, _, _ = _scan_plan(8)
        dropped = 0
        for start in range(0, len(cells), 16):
            batch = cells[start : start + 16]
            sides = [((c.tau_L, c.delta_L), (c.tau_R, c.delta_R)) for c in batch]
            rot = _word_table(sides, 8)[:, :, rot_rows]
            keep = sphere._screen(rot, 8, np.array(floors))
            for c in range(len(batch)):
                for w in np.flatnonzero(~keep[c]):
                    word, cols = words[w], slice(starts[w], starts[w] + len(words[w]))
                    orbits = word_orbits(sides[c], word, rot[:, c, cols].tolist(),
                                         floors[len(word)])
                    assert orbits == [], (batch[c], word)
            dropped += int((~keep).sum())
        # the screen does drop most words
        assert dropped > 0.7 * len(cells) * len(words)

    @pytest.mark.parametrize("lambda_min", [None, LAMBDA_POS_TOL], ids=["all", "floored"])
    def test_screen_keeps_the_same_words_for_a_cell_alone(self, lambda_min):
        # a scan of one cell screens too: the bench's 16x8 plane's 88
        # in-regime cells and the four reference points, in batches of 16
        # and one by one
        cells = [
            (float(tl), 1.4, float(tr), -1.2)
            for tl in np.linspace(0.0, 3.5, 16) if tl < 2.0 * math.sqrt(1.4)
            for tr in np.linspace(-2.0, 1.0, 8)
        ]
        assert len(cells) == 88
        cells += [PT_FOLD, PT_STABLE, PT_UNSTABLE, PT_CONTRACT]
        floors = np.array([0.0 if lambda_min is None else eigenvalue_floor(p, lambda_min)
                           for p in range(9)])
        rot_rows = _scan_plan(8)[3]
        for start in range(0, len(cells), 16):
            sides = [((tl, dl), (tr, dr)) for tl, dl, tr, dr in cells[start : start + 16]]
            keep = sphere._screen(_word_table(sides, 8)[:, :, rot_rows], 8, floors)
            for c in range(len(sides)):
                alone = sphere._screen(_word_table(sides[c : c + 1], 8)[:, :, rot_rows], 8, floors)
                assert alone.tolist() == [keep[c].tolist()], cells[start + c]

    def test_screen_keeps_a_ray_within_its_margin(self):
        # a rotation-ordered table of words up to length 1, L then R (each
        # word is its own only rotation): L = [[0.5, b], [0, 2]] has the
        # eigenvalue 2 on the ray of cosine c just right of pi/2, and R is a
        # rotation.  At c = EPS_ANGLE (1 - 1e-11) the exact test gives L an
        # orbit; at c = EPS_ANGLE (1 + 1e-11) it does not, but c is within
        # the screen's margin, so the screen keeps L both times.
        sides = ((0.5, 1.0), (0.0, 1.0))
        orbits = []
        for c in (sphere.EPS_ANGLE * (1 - 1e-11), sphere.EPS_ANGLE * (1 + 1e-11)):
            b = 1.5 * c / math.sqrt(1.0 - c * c)
            # rows ax, ay, bx, by; entries: L, R
            rot = np.array([[0.5, 0.0], [0.0, 1.0], [b, -1.0], [2.0, 0.0]])
            keep = sphere._screen(rot[:, None], 1, np.zeros(2))
            assert keep.tolist() == [[True, False]]
            orbits.append(word_orbits(sides, (0,), rot[:, :1].tolist()))
        assert len(orbits[0]) == 1 and orbits[1] == []
        assert orbits[0][0].thetas[0] == pytest.approx(math.pi / 2, abs=sphere.EPS_ANGLE)

    def test_rejects_a_wrong_sign_or_period(self):
        params = NormalForm2D(*PT_UNSTABLE)
        with pytest.raises(RegimeError):
            sphere.periodic_orbits_many([params, NormalForm2D(1.0, -0.2, -0.5, -1.2)], 8)
        with pytest.raises(ValueError, match="p_max"):
            sphere.periodic_orbits_many([params], 0)

    def test_import_builds_no_plan(self):
        # the screen's index arrays are built at the first batch, not when
        # the package loads
        code = "import pwlstab; print(pwlstab.sphere._scan_plan.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0"


def pointer_doubling_cycle(table, graph, base):
    """The cycle search as first written: pointer doubling carries the
    smallest arc passed through every arc, and the cycle sums run over all
    n arcs.  The reference for ``arcs._positive_cycle``."""
    level, lo, tail = graph.level, graph.lo, graph.tail
    vals = table[0]
    n = vals.size
    idx = np.empty(table.shape, dtype=np.int32)
    idx[:, :] = np.arange(n, dtype=np.int32)
    for k in range(1, table.shape[0]):
        span = 1 << (k - 1)
        left_wins = table[k - 1, :-span] >= table[k - 1, span:]
        idx[k, :-span] = np.where(left_wins, idx[k - 1, :-span], idx[k - 1, span:])
    first, second = idx[level, lo], idx[level, tail]
    policy = np.where(vals[first] >= vals[second], first, second)

    jump, low = policy, np.arange(n, dtype=np.int32)
    for _ in range(max(n - 1, 1).bit_length()):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[jump] = True
    label = low[on_cycle]
    length = np.bincount(label, minlength=n)
    total = np.bincount(label, base[on_cycle], minlength=n)
    scale = np.bincount(label, np.abs(base[on_cycle]), minlength=n)
    margin = 2.0**-52 * length * (scale + arcs.SUB_ACTION_ROUNDS * max(float(base.max()), 0.0))
    excess = np.where(length > 0, total - margin, -np.inf)
    best = int(np.argmax(excess))
    if not excess[best] > 0.0:
        return None
    cycle = np.empty(length[best], dtype=np.intp)
    cycle[0] = best
    for t in range(1, cycle.size):
        cycle[t] = policy[cycle[t - 1]]
    return cycle


def per_round_sub_action(params, n_arcs):
    """``sub_action`` as first written: it builds the edges and their unit
    rays at every call, reads both windows of the range maxima with 2-D fancy
    indices and allocates new arrays at every round, and searches cycles
    with ``pointer_doubling_cycle``.  The reference for ``arcs.sub_action``;
    it builds its own graph, plan included, and never calls ``arc_graph``."""
    half = n_arcs // 2
    edges = np.arange(n_arcs + 1) * (math.pi / n_arcs)
    edges[half] = HALF_PI
    x, y = params.step(np.where(edges == HALF_PI, 0.0, np.cos(edges)), np.sin(edges))
    image = np.arctan2(y, x)
    d2 = x * x + y * y

    d2_max = np.maximum(d2[:-1], d2[1:])
    d2_min = np.minimum(d2[:-1], d2[1:])
    for tau, delta, side in (
        (params.tau_R, params.delta_R, slice(0, half)),
        (params.tau_L, params.delta_L, slice(half, n_arcs)),
    ):
        c0 = 0.5 * (tau * tau + delta * delta + 1.0)
        ca = 0.5 * (tau * tau + delta * delta - 1.0)
        peak = 0.5 * math.atan2(tau, ca) % math.pi
        inside = (edges[side] <= peak) & (peak <= edges[1:][side])
        d2_max[side][inside] = c0 + math.hypot(ca, tau)
        trough = (peak + HALF_PI) % math.pi
        inside = (edges[side] <= trough) & (trough <= edges[1:][side])
        d2_min[side][inside] = delta * delta / (c0 + math.hypot(ca, tau))
    w = 0.5 * np.log(d2_max)
    w_lo = 0.5 * np.log(d2_min)

    cone_lo = np.minimum(image[:-1], image[1:]) - arcs.ARC_PAD
    cone_hi = np.maximum(image[:-1], image[1:]) + arcs.ARC_PAD
    lo = np.searchsorted(edges[1:], cone_lo, "left")
    hi = np.searchsorted(edges[:-1], cone_hi, "right") - 1

    level = np.floor(np.log2(hi - lo + 1)).astype(np.intp)
    tail = hi - (1 << level) + 1
    graph = arcs.ArcGraph(edges, w, w_lo, lo, hi, level, tail)
    table = np.full((int(level.max()) + 1, n_arcs), -np.inf)
    eta = arcs.SUB_ACTION_ETA
    base = w + eta
    v = np.zeros(n_arcs)
    for rounds in range(1, SUB_ACTION_ROUNDS + 1):
        table[0] = v
        for k in range(1, table.shape[0]):
            span = 1 << (k - 1)
            np.maximum(table[k - 1, :-span], table[k - 1, span:], out=table[k, :-span])
        top = np.maximum(table[level, lo], table[level, tail])
        new = np.maximum(0.0, base + top)
        if np.array_equal(new, v):
            slack = math.log(math.cos(math.pi / (2 * n_arcs))) - (w + top - v)
            t = max(abs(params.tau_L), abs(params.tau_R))
            margin = 2.0**-50 * (2.0 + np.abs(w).max() + v.max() + (1.0 + t) * np.exp(-w.min()))
            return arcs.SubAction(
                graph, v, rounds, eta, slack=slack, slack_margin=float(margin)
            )
        if rounds % CYCLE_CHECK_EVERY == 0:
            cycle = pointer_doubling_cycle(table, graph, base)
            if cycle is not None:
                return arcs.SubAction(graph, None, rounds, eta, cycle)
        v = new
    return arcs.SubAction(graph, None, SUB_ACTION_ROUNDS, eta)


def sub_action_runs():
    """(params, n) of the 16x8 acceptance plane's in-regime cells at 2048 and
    8192, PT_UNSTABLE at 512 and 2048, and 200 sign-regime draws at 2048."""
    runs = []
    for tl in np.linspace(0.0, 3.5, 16):
        for tr in np.linspace(-2.0, 1.0, 8):
            params = NormalForm2D(float(tl), 1.4, float(tr), -1.2)
            if params.tau_L < params.left_spiral_bound:
                runs += [(params, 2048), (params, 8192)]
    runs += [(NormalForm2D(*PT_UNSTABLE), 512), (NormalForm2D(*PT_UNSTABLE), 2048)]
    runs += [(params, 2048) for params in sign_regime_draws()]
    return runs


def sign_regime_draws():
    """200 maps drawn with delta_L > 0 > delta_R from ``default_rng(3)``."""
    draws = []
    rng = np.random.default_rng(3)
    for _ in range(200):
        tl, tr = rng.uniform(-3.0, 3.0, 2)
        dl, dr = rng.uniform(0.1, 2.0), -rng.uniform(0.1, 2.0)
        draws.append(NormalForm2D(tl, dl, tr, dr))
    return draws


def same_array(a, b) -> bool:
    """Both None, or equal dtype, shape and bytes (signed zeros included)."""
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_positive_cycle(sa):
    # re-verify the closed walk from the returned arrays alone: each arc's
    # successor range holds the next arc, the last arc's holds the first,
    # and the walk's exact sum of w + eta is positive
    assert sa.v is None and sa.cycle is not None and sa.cycle.size >= 1
    walk = [int(i) for i in sa.cycle]
    for i, j in zip(walk, walk[1:] + walk[:1]):
        assert sa.graph.lo[i] <= j <= sa.graph.hi[i]
    assert math.fsum(float(sa.graph.w[i]) + sa.eta for i in walk) > 0.0


class TestSubAction:
    @pytest.mark.parametrize("pt", [PT_STABLE, PT_CONTRACT], ids=["stable", "contract"])
    def test_certified_at_2048(self, pt):
        sa = sub_action(NormalForm2D(*pt), 2048)
        assert sa.v is not None and sa.rounds < SUB_ACTION_ROUNDS

    @pytest.mark.parametrize("pt", [PT_STABLE, PT_CONTRACT], ids=["stable", "contract"])
    def test_returned_arrays_satisfy_the_inequality(self, pt):
        # re-verify each arc from the returned arrays alone, one slice at a
        # time, and re-read its slack against the chord's dip
        sa = sub_action(NormalForm2D(*pt), 2048)
        v, g = sa.v, sa.graph
        chord = math.log(math.cos(math.pi / 4096))
        assert np.all(v >= 0.0)
        for i in range(v.size):
            top = v[g.lo[i] : g.hi[i] + 1].max()
            assert v[i] >= g.w[i] + sa.eta + top
            assert sa.slack[i] == chord - (g.w[i] + top - v[i])
        assert sa.slack.min() >= sa.eta + chord - 1e-12
        assert 0.0 < sa.slack_margin < 1e-13

    @pytest.mark.parametrize("pt", [PT_STABLE, PT_UNSTABLE, PT_CONTRACT])
    def test_graph_bounds_the_circle_map(self, pt):
        # points inside each arc: ln D stays below the arc's weight, and the
        # image angle lands in the arc's successor range
        params = NormalForm2D(*pt)
        g = sub_action(params, 512).graph
        assert g.edges[256] == math.pi / 2
        frac = np.linspace(0.0, 1.0, 7)[1:-1]
        lo_edge, hi_edge = g.edges[:-1], g.edges[1:]
        theta = (lo_edge[:, None] + frac * (hi_edge - lo_edge)[:, None]).ravel()
        arc = np.repeat(np.arange(512), frac.size)
        assert np.all(np.log(circle_D(params, theta)) <= g.w[arc] + 1e-12)
        image = circle_G(params, theta)
        assert np.all(image >= g.edges[g.lo[arc]])
        assert np.all(image <= g.edges[g.hi[arc] + 1])

    @pytest.mark.parametrize("n_arcs", [512, 2048])
    def test_unstable_point_is_never_certified(self, n_arcs):
        # PT_UNSTABLE has an expanding period-3 orbit: no sub-action exists
        sa = sub_action(NormalForm2D(*PT_UNSTABLE), n_arcs)
        assert_positive_cycle(sa)

    @pytest.mark.parametrize("n_arcs", [2048, 8192])
    @pytest.mark.parametrize("pt", UNDECIDED_CELLS)
    def test_undecided_cells_end_at_a_positive_cycle(self, pt, n_arcs):
        sa = sub_action(NormalForm2D(*pt), n_arcs)
        assert_positive_cycle(sa)
        assert sa.rounds < SUB_ACTION_ROUNDS

    def test_cycle_search_matches_pointer_doubling(self, monkeypatch):
        # the cycle search labels only the arcs on policy cycles; against
        # the search that carried every arc through the doubling, it gives
        # the same cycle (or none) at every call, so every run stops at the
        # same round with the same v or cycle
        runs = []
        for tl in np.linspace(0.0, 3.5, 16):
            for tr in np.linspace(-2.0, 1.0, 8):
                params = NormalForm2D(float(tl), 1.4, float(tr), -1.2)
                if params.tau_L < params.left_spiral_bound:
                    runs += [(params, 2048), (params, 8192)]
        runs += [(NormalForm2D(*PT_UNSTABLE), 512), (NormalForm2D(*PT_UNSTABLE), 2048)]
        rng = np.random.default_rng(3)
        for _ in range(200):
            tl, tr = rng.uniform(-3.0, 3.0, 2)
            dl, dr = rng.uniform(0.1, 2.0), -rng.uniform(0.1, 2.0)
            runs.append((NormalForm2D(tl, dl, tr, dr), 2048))

        calls = []
        search = arcs._positive_cycle

        def both(*args):
            got, want = search(*args), pointer_doubling_cycle(*args)
            assert (got is None and want is None) or np.array_equal(got, want)
            calls.append(got is not None)
            return got

        compared = 0
        for params, n in runs:
            sa = sub_action(params, n)
            if sa.v is not None and sa.rounds < CYCLE_CHECK_EVERY:
                continue  # converged before the first search
            compared += 1
            with monkeypatch.context() as m:
                m.setattr(arcs, "_positive_cycle", pointer_doubling_cycle)
                ref = sub_action(params, n)
            assert sa.rounds == ref.rounds
            assert (sa.v is None) == (ref.v is None)
            assert sa.v is None or np.array_equal(sa.v, ref.v)
            assert (sa.cycle is None) == (ref.cycle is None)
            assert sa.cycle is None or np.array_equal(sa.cycle, ref.cycle)
            with monkeypatch.context() as m:
                m.setattr(arcs, "_positive_cycle", both)
                sub_action(params, n)
        assert compared > 100 and sum(calls) > 100 and not all(calls)

    def test_matches_per_round_sub_action(self):
        # the graph's flat indices, the rounds' buffers and the cached rays
        # change no float: every field of every run, and of its graph,
        # equals the reference's
        runs = sub_action_runs()
        cycles = converged = 0
        for params, n in runs:
            got, want = sub_action(params, n), per_round_sub_action(params, n)
            for f in dataclasses.fields(arcs.ArcGraph):
                assert same_array(getattr(got.graph, f.name), getattr(want.graph, f.name)), f.name
            for name in ("v", "cycle", "slack"):
                assert same_array(getattr(got, name), getattr(want, name)), name
            assert (got.rounds, got.eta, got.slack_margin) == (want.rounds, want.eta, want.slack_margin)
            cycles += got.cycle is not None
            converged += got.v is not None
        assert len(runs) == 378 and cycles > 300 and converged > 50

    def test_rays_are_cached_read_only(self):
        arcs._arc_rays.cache_clear()
        with pytest.raises(ValueError, match="even"):
            sub_action(NormalForm2D(*PT_STABLE), 511)
        with pytest.raises(RegimeError):
            sub_action(NormalForm2D(1.0, -0.2, -0.5, -1.2), 512)
        assert arcs._arc_rays.cache_info().currsize == 0
        params = NormalForm2D(*PT_FOLD)
        for n in (512, 2048):
            rays = arcs._arc_rays(n)
            assert arcs._arc_rays(n) is rays
            edges, c, s = rays
            want = np.arange(n + 1) * (math.pi / n)
            want[n // 2] = HALF_PI
            assert same_array(edges, want)
            assert same_array(c, np.where(want == HALF_PI, 0.0, np.cos(want)))
            assert same_array(s, np.sin(want)) and c[n // 2] == 0.0
            for a in rays:
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0
            assert sub_action(params, n).graph.edges is edges
        for n in range(2, 20, 2):
            arcs._arc_rays(n)
        info = arcs._arc_rays.cache_info()
        assert info.maxsize == info.currsize == 4

    def test_import_builds_no_rays(self):
        # the rays are built at the first sub_action, not when the package loads
        code = "import pwlstab; print(pwlstab.arcs._arc_rays.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0"

    def test_runs_out_of_rounds_without_the_cycle_search(self, monkeypatch):
        monkeypatch.setattr(arcs, "CYCLE_CHECK_EVERY", SUB_ACTION_ROUNDS + 1)
        sa = sub_action(NormalForm2D(*PT_UNSTABLE), 512)
        assert sa.v is None and sa.cycle is None and sa.rounds == SUB_ACTION_ROUNDS

    def test_rejects_odd_arc_counts_and_wrong_signs(self):
        with pytest.raises(ValueError, match="even"):
            sub_action(NormalForm2D(*PT_STABLE), 511)
        with pytest.raises(RegimeError):
            sub_action(NormalForm2D(1.0, -0.2, -0.5, -1.2), 512)


class TestSectorSign:
    def test_signs_pinned(self):
        # every cell of the 16x8 acceptance plane, in the certificate regime
        # or not, and the 200 draws of sub_action_runs: each sign, 1, 0 or
        # None, pinned as one digest of their repr
        plane = [
            NormalForm2D(float(tl), 1.4, float(tr), -1.2)
            for tl in np.linspace(0.0, 3.5, 16)
            for tr in np.linspace(-2.0, 1.0, 8)
        ]
        signs = [arcs.sector_sign(params) for params in plane + sign_regime_draws()]
        assert (signs.count(1), signs.count(0), signs.count(None)) == (50, 147, 131)
        digest = hashlib.sha256(repr(signs).encode()).hexdigest()
        assert digest == "ce327e5e206cab70b4126ecee0308f4d29cc781a31ae9f44948a1069825b978f"
