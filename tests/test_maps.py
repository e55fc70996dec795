"""Map types, continuity validation, orbit classification, eigen closed forms."""

import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlstab import (
    NormalForm2D,
    OrbitStatus,
    PWLMap,
    eig2,
    eval_pwl,
    orbit,
    perturbed_map,
)

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


class TestPWLMapValidation:
    def test_accepts_companion_pair(self):
        m = NormalForm2D(2.0, 1.4, -0.8, -1.2).pwl()
        assert m.dim == 2
        assert np.allclose(m.A_left, [[2.0, 1.0], [-1.4, 0.0]])
        assert np.allclose(m.A_right, [[-0.8, 1.0], [1.2, 0.0]])

    def test_rejects_discontinuous_pair(self):
        # difference diag(0, -1) has row space e2, not the normal e1
        with pytest.raises(ValueError, match="discontinuous"):
            PWLMap(np.eye(2), np.diag([1.0, 2.0]), np.array([1.0, 0.0]))

    def test_same_normal_different_scale_ok(self):
        a = np.array([[1.0, 0.0], [3.0, 1.0]])
        PWLMap(a, np.eye(2), np.array([2.0, 0.0]))  # difference is c e1^T

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError, match="normal"):
            PWLMap(np.eye(2), np.eye(2), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PWLMap(np.eye(2), np.eye(3), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            PWLMap(np.eye(2), np.eye(2), np.array([1.0, 0.0, 0.0]))

    def test_higher_dimension_accepted(self):
        a = np.eye(3)
        b = a + np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])
        m = PWLMap(b, a, np.array([1.0, 0.0, 0.0]))
        assert m.dim == 3


class TestEvalPWL:
    def test_sides(self):
        m = NormalForm2D(2.0, 1.4, -0.8, -1.2).pwl()
        assert np.allclose(eval_pwl(m, np.array([1.0, 0.0])), [-0.8, 1.2])
        assert np.allclose(eval_pwl(m, np.array([-1.0, 0.0])), [-2.0, 1.4])

    def test_boundary_agrees(self):
        m = NormalForm2D(2.0, 1.4, -0.8, -1.2).pwl()
        x = np.array([0.0, 3.7])
        assert np.allclose(m.A_left @ x, m.A_right @ x)
        assert np.allclose(eval_pwl(m, x), [3.7, 0.0])

    @given(
        tl=finite, dl=finite, tr=finite, dr=finite,
        x=finite, y=finite,
        alpha=st.floats(0.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_positive_homogeneity(self, tl, dl, tr, dr, x, y, alpha):
        m = NormalForm2D(tl, dl, tr, dr).pwl()
        v = np.array([x, y])
        lhs = eval_pwl(m, alpha * v)
        rhs = alpha * eval_pwl(m, v)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(rhs).max()))

    @given(tl=finite, dl=finite, tr=finite, dr=finite, y=finite)
    @settings(max_examples=200, deadline=None)
    def test_continuity_on_switching_line(self, tl, dl, tr, dr, y):
        m = NormalForm2D(tl, dl, tr, dr).pwl()
        v = np.array([0.0, y])
        assert np.allclose(m.A_left @ v, m.A_right @ v, rtol=1e-12, atol=1e-12)


class TestNormalFormStep:
    params = NormalForm2D(2.0, 1.4, -0.8, -1.2)

    def test_array_and_scalar_agree_bit_for_bit(self):
        rng = np.random.default_rng(4)
        # every pairing of non-finite and signed-zero x with non-finite y;
        # a NaN x takes the right pair on both paths
        odd_x = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]
        odd_y = [math.nan, math.inf, -math.inf, 0.5]
        ox, oy = zip(*itertools.product(odd_x, odd_y))
        x = np.concatenate((rng.normal(size=200), [0.0, -0.0, 5e-324, -5e-324], ox))
        y = np.concatenate((rng.normal(size=200), [1.5, -2.5, 0.7, -0.3], oy))
        with np.errstate(over="ignore", invalid="ignore"):
            ax, ay = self.params.step(x, y)
        sx, sy = zip(*(self.params.step_scalar(float(a), float(b)) for a, b in zip(x, y)))
        # tobytes tells -0.0 from 0.0
        assert np.array(sx).tobytes() == ax.tobytes()
        assert np.array(sy).tobytes() == ay.tobytes()

    def test_side_tables_stay_out_of_the_dataclass(self):
        p = NormalForm2D(2.0, 1.4, -0.8, -1.2)
        x = np.array([-1.0, -0.0, 0.0, 1.0, math.nan])
        y = np.array([0.5, 0.5, -0.5, 2.0, 1.0])
        want = [a.tobytes() for a in p.step(x, y)]
        # before and after a step
        for _ in range(2):
            assert p == NormalForm2D(2.0, 1.4, -0.8, -1.2)
            assert hash(p) == hash((2.0, 1.4, -0.8, -1.2))
            assert repr(p) == "NormalForm2D(tau_L=2.0, delta_L=1.4, tau_R=-0.8, delta_R=-1.2)"
            assert [f.name for f in dataclasses.fields(p)] == [
                "tau_L", "delta_L", "tau_R", "delta_R"
            ]
            assert dataclasses.asdict(p) == {
                "tau_L": 2.0, "delta_L": 1.4, "tau_R": -0.8, "delta_R": -1.2
            }
            for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
                assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
                assert [a.tobytes() for a in q.step(x, y)] == want
            p.step(x, y)
        # a replaced parameter reaches the step
        q = dataclasses.replace(p, tau_R=3.0)
        assert q.step(np.array([1.0]), np.array([0.0]))[0][0] == 3.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["tau_L", "delta_L", "tau_R", "delta_R"])
    def test_rejects_non_finite_parameters(self, field, bad):
        p = NormalForm2D(2.0, 1.4, -0.8, -1.2)
        with pytest.raises(ValueError, match="finite"):
            NormalForm2D(**{**dataclasses.asdict(p), field: bad})
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(p, **{field: bad})

    @pytest.mark.parametrize("k", [1, 7, 32])
    def test_advance_is_repeated_step_bit_for_bit(self, k):
        rng = np.random.default_rng(5)
        x = np.concatenate((rng.normal(size=200), [0.0, -0.0, 5e-324, -5e-324]))
        y = np.concatenate((rng.normal(size=200), [1.5, -2.5, 0.7, -0.3]))
        for a, b in zip(x.tolist(), y.tolist()):
            sx, sy = a, b
            for _ in range(k):
                sx, sy = self.params.step_scalar(sx, sy)
            # tobytes tells -0.0 from 0.0
            got = np.array(self.params.advance(a, b, k)).tobytes()
            assert got == np.array([sx, sy]).tobytes()

    def test_x_nonpositive_takes_left_pair(self):
        p = self.params
        for x in (-1.0, -5e-324, -0.0, 0.0):
            assert p.step_scalar(x, 0.5) == (p.tau_L * x + 0.5, -p.delta_L * x)
        for x in (5e-324, 1.0):
            assert p.step_scalar(x, 0.5) == (p.tau_R * x + 0.5, -p.delta_R * x)
        # y = -delta_L * 0.0 = -0.0 on the switching line, the left pair's sign
        assert math.copysign(1.0, p.step_scalar(0.0, 0.5)[1]) == -1.0
        assert math.copysign(1.0, p.step_scalar(-0.0, 0.5)[1]) == 1.0
        x = np.array([-1.0, 0.0, 1.0])
        assert np.array_equal(p.step(x, np.zeros(3))[1], [1.4, 0.0, 1.2])


class TestOrbit:
    def test_contraction_converges(self):
        m = PWLMap(0.5 * np.eye(2), 0.5 * np.eye(2), np.array([1.0, 0.0]))
        v = orbit(m, np.array([1.0, 1.0]))
        assert v.status is OrbitStatus.CONVERGED
        assert v.final_norm < 1e-9 * math.sqrt(2.0)
        assert v.log_norm_slope == pytest.approx(math.log(0.5), rel=1e-6)

    def test_expansion_diverges(self):
        m = PWLMap(2.0 * np.eye(2), 2.0 * np.eye(2), np.array([1.0, 0.0]))
        v = orbit(m, np.array([1e-3, 0.0]))
        assert v.status is OrbitStatus.DIVERGED
        assert v.log_norm_slope == pytest.approx(math.log(2.0), rel=1e-6)

    def test_rotation_undecided(self):
        c, s = math.cos(1.0), math.sin(1.0)
        r = np.array([[c, -s], [s, c]])
        m = PWLMap(r, r, np.array([1.0, 0.0]))
        v = orbit(m, np.array([1.0, 0.0]), budget=500)
        assert v.status is OrbitStatus.UNDECIDED
        assert v.steps == 500
        assert abs(v.log_norm_slope) < 1e-12

    def test_zero_start_converged(self):
        m = PWLMap(np.eye(2), np.eye(2), np.array([1.0, 0.0]))
        v = orbit(m, np.zeros(2))
        assert v.status is OrbitStatus.CONVERGED
        assert v.steps == 0

    def test_callable_step(self):
        v = orbit(lambda x: 0.1 * x, np.array([1.0, 0.0]))
        assert v.status is OrbitStatus.CONVERGED


class TestEig2:
    def test_real_pair(self):
        plus, minus = eig2(1.0, -6.0)
        assert plus.value == pytest.approx(3.0)
        assert minus.value == pytest.approx(-2.0)
        a = np.array([[1.0, 1.0], [6.0, 0.0]])
        for pair in (plus, minus):
            assert pair.is_real and not pair.degenerate
            assert 0.0 <= pair.angle < math.pi
            u = np.array([math.cos(pair.angle), math.sin(pair.angle)])
            assert np.allclose(a @ u, pair.value.real * u)

    def test_complex_pair(self):
        plus, minus = eig2(0.0, 1.0)
        assert plus.value == pytest.approx(1j)
        assert minus.value == pytest.approx(-1j)
        assert not plus.is_real and plus.angle is None

    def test_degenerate(self):
        plus, minus = eig2(2.0, 1.0)  # (lambda-1)^2
        assert plus.degenerate and minus.degenerate
        assert plus.value == pytest.approx(1.0)
        assert plus.angle == minus.angle

    @given(tau=finite, delta=finite)
    @settings(max_examples=300, deadline=None)
    def test_trace_det_bijection(self, tau, delta):
        plus, minus = eig2(tau, delta)
        assert plus.value + minus.value == pytest.approx(tau, rel=1e-9, abs=1e-9)
        assert plus.value * minus.value == pytest.approx(delta, rel=1e-9, abs=1e-9)
        a = np.array([[tau, 1.0], [-delta, 0.0]])
        for pair in (plus, minus):
            if pair.is_real:
                u = np.array([math.cos(pair.angle), math.sin(pair.angle)])
                lam = pair.value.real
                assert np.allclose(a @ u, lam * u, rtol=0.0, atol=1e-9 * max(1.0, abs(lam)))


class TestPerturbedMap:
    def test_value(self):
        m = NormalForm2D(2.0, 1.4, -0.8, -1.2).pwl()
        step = perturbed_map(m, c=0.1, gamma=0.5)
        x = np.array([3.0, 4.0])  # |x| = 5
        expected = eval_pwl(m, x) + 0.1 * 5.0**1.5 * np.array([1.0, 0.0])
        assert np.allclose(step(x), expected)

    def test_custom_direction(self):
        m = NormalForm2D(2.0, 1.4, -0.8, -1.2).pwl()
        step = perturbed_map(m, 0.2, 1.0, direction=np.array([0.0, 2.0]))
        x = np.array([1.0, 0.0])
        assert np.allclose(step(x), eval_pwl(m, x) + np.array([0.0, 0.4]))

    def test_gamma_must_be_positive(self):
        m = NormalForm2D(2.0, 1.4, -0.8, -1.2).pwl()
        with pytest.raises(ValueError):
            perturbed_map(m, 0.1, 0.0)

    def test_direction_shape_checked(self):
        m = NormalForm2D(2.0, 1.4, -0.8, -1.2).pwl()
        with pytest.raises(ValueError):
            perturbed_map(m, 0.1, 0.5, direction=np.ones(3))


def test_normal_form_helpers():
    params = NormalForm2D(*[2.0, 1.4, -0.8, -1.2])
    assert params.in_sign_regime
    assert params.left_spiral_bound == pytest.approx(2.0 * math.sqrt(1.4))
    assert not NormalForm2D(2.0, -1.4, -0.8, -1.2).in_sign_regime
    assert NormalForm2D(2.0, -1.4, -0.8, -1.2).left_spiral_bound == math.inf
