"""Attracted-fraction computations: closed form vs direct orbit counting."""

import math
import warnings

import numpy as np
import pytest

from pwlstab import (
    NormalForm2D,
    OrbitStatus,
    RegimeError,
    RhoEstimate,
    orbit,
    rho_closed_form,
    mix_seed,
    rho_sampled,
    sphere,
)
from pwlstab.maps import CONV_RADIUS, DIV_RADIUS, ORBIT_BUDGET

from conftest import (
    FOLD_PSI,
    FOLD_RHO,
    FOLD_THETA_L_MINUS,
    PT_FOLD,
    PT_STABLE,
    PT_UNSTABLE,
)


def fresh_directions(n_samples, seed):
    """rho_sampled's seeded unit directions, drawn anew on every call."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_samples, 2))
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        pts[bad] = rng.normal(size=(int(bad.sum()), 2))
        norms = np.linalg.norm(pts, axis=1)
    return pts / norms[:, None]


def per_step_rho(params, n_samples, orbit_budget, seed):
    """rho_sampled with the exit test on every step: the reference that the
    skipping loop must match exactly."""
    pts = fresh_directions(n_samples, seed)
    x, y = pts[:, 0], pts[:, 1]
    n_conv = 0
    for _ in range(orbit_budget):
        if x.size == 0:
            break
        x, y = params.step(x, y)
        sq = x * x + y * y
        conv = sq < CONV_RADIUS * CONV_RADIUS
        done = conv | ~np.isfinite(sq) | (sq > DIV_RADIUS * DIV_RADIUS)
        if np.any(done):
            n_conv += int(conv.sum())
            x = x[~done]
            y = y[~done]
    return RhoEstimate(n_conv / n_samples, x.size / n_samples, n_samples, seed)


class TestClosedForm:
    def test_frozen_value(self):
        assert rho_closed_form(NormalForm2D(*PT_FOLD)) == FOLD_RHO
        assert abs(FOLD_RHO - 0.37) < 0.005

    def test_arc_identity(self):
        # rho is one minus the arc from the repelling ray to its preimage
        arc = FOLD_PSI - FOLD_THETA_L_MINUS
        assert FOLD_RHO == pytest.approx(1.0 - arc / (2.0 * math.pi), abs=1e-15)

    def test_brute_force_cross_check(self):
        # independent route: classify equispaced directions with the plain
        # orbit loop, no angle formulas involved.  The count can only miss
        # on grid cells straddling the two basin boundaries.
        params = NormalForm2D(*PT_FOLD)
        m = params.pwl()
        n = 2000
        conv = 0
        for i in range(n):
            t = 2.0 * math.pi * i / n
            res = orbit(m, np.array([math.cos(t), math.sin(t)]), budget=2000)
            if res.status is OrbitStatus.CONVERGED:
                conv += 1
        assert conv / n == pytest.approx(FOLD_RHO, abs=2.0 / n)

    @pytest.mark.parametrize(
        "point, rho",
        [
            # the sector's orbits expand, and so do those near theta_L_plus: s = 0, l = 0
            ((3.0009, 0.3504, 0.1890, -1.5365), 0.0),
            # both contract, s = 1 and l = 1
            ((1.8027, 0.8121, -1.7437, -1.9054), 1.0),
            # the sector expands and theta_L_plus contracts, s = 0 and l = 1: rho = b
            ((1.2507, 0.387, 1.5179, -0.2265), 0.42502078908135615),
            # certificate regime with a witness: the super-action gives s = 0
            ((1.0, 1.4, 0.5, -1.2), 0.0),
        ],
        ids=["expanding_sector", "both_contract", "basin_only", "witness"],
    )
    def test_sector_sign_brute_force_cross_check(self, point, rho):
        # the same direction count as above; only the grid cells that straddle
        # a basin boundary (none where rho is 0 or 1) can miss
        params = NormalForm2D(*point)
        assert rho_closed_form(params) == rho
        m = params.pwl()
        n = 500
        conv = 0
        for i in range(n):
            t = 2.0 * math.pi * i / n
            res = orbit(m, np.array([math.cos(t), math.sin(t)]), budget=2000)
            if res.status is OrbitStatus.CONVERGED:
                conv += 1
        assert conv / n == pytest.approx(rho, abs=2.0 / n)

    def test_certificate_regime_reads_the_sector_sign(self):
        # every direction enters the sector, so rho is its certified sign
        assert rho_closed_form(NormalForm2D(*PT_STABLE)) == 1.0
        # the paper's Milnor case: sampling gives 1, but no bound over all
        # invariant measures certifies either sign
        with pytest.raises(RegimeError, match="certified sign"):
            rho_closed_form(NormalForm2D(*PT_UNSTABLE))
        # on the boundary tau_L = 2*sqrt(delta_L) neither regime holds
        with pytest.raises(RegimeError, match="2\\*sqrt"):
            rho_closed_form(NormalForm2D(2.0 * math.sqrt(1.4), 1.4, -0.5, -1.2))

    def test_requires_lambda_L_plus_off_one(self):
        # eigenvalues 1 and 0.75: the attracting left ray is neutral
        with pytest.raises(RegimeError, match="lambda_L_plus != 1"):
            rho_closed_form(NormalForm2D(1.75, 0.75, -0.5, -1.2))

    def test_requires_invariant_sector(self):
        # tau_R = -0.9 breaks tau_R > -delta_R/(lambda_L_minus - tau_L)
        with pytest.raises(RegimeError, match="delta_R"):
            rho_closed_form(NormalForm2D(2.5, 1.4, -0.9, -1.2))

    def test_requires_sign_regime(self):
        with pytest.raises(RegimeError):
            rho_closed_form(NormalForm2D(2.5, -1.4, -0.5, -1.2))


class TestSampled:
    def test_matches_closed_form(self):
        est = rho_sampled(NormalForm2D(*PT_FOLD), n_samples=4000, seed=7)
        assert est.rho_hat == pytest.approx(FOLD_RHO, abs=0.03)
        assert est.rho_hat == 0.35825  # pinned seeded output
        assert est.undecided_fraction == 0.0
        assert est.n_samples == 4000 and est.seed == 7

    def test_deterministic_per_seed(self):
        m = NormalForm2D(*PT_FOLD)
        a = rho_sampled(m, n_samples=2000, seed=11)
        b = rho_sampled(m, n_samples=2000, seed=11)
        assert a == b

    def test_contracting_map_fully_attracted(self):
        m = NormalForm2D(0.5, 0.2, -0.5, -0.2)
        est = rho_sampled(m, n_samples=1000, seed=3)
        assert est.rho_hat == 1.0
        assert est.undecided_fraction == 0.0

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            rho_sampled(NormalForm2D(*PT_FOLD), n_samples=0)

    def test_tight_budget_leaves_undecided(self):
        # with only a couple of steps nothing reaches either radius
        m = NormalForm2D(*PT_FOLD)
        est = rho_sampled(m, n_samples=500, orbit_budget=2, seed=0)
        assert est.undecided_fraction > 0.5

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="orbit_budget"):
            rho_sampled(NormalForm2D(*PT_FOLD), n_samples=10, orbit_budget=-3)

    def test_matches_per_step_loop(self):
        cases = [
            PT_FOLD,
            PT_STABLE,
            PT_UNSTABLE,
            # cells of the 16x8 measure plane: one never settles, one
            # leaves a share undecided after the full budget
            (1.6333333333333333, 1.4, -0.2857142857142858, -1.2),
            (0.23333333333333334, 1.4, -1.1428571428571428, -1.2),
            # delta_L = 0: the shrink bound is 0, so no step is skipped
            (1.0, 0.0, -1.0, -1.2),
            # unpadded, the grow bound rounds to 1 (and its log to 0)
            (1e-9, 1e-9, 1e-9, -1e-9),
            # unpadded, the shrink bound rounds to 1
            (0.0, 1e9, 0.0, -1e9),
            # finite, but a left step overflows: the squared norm turns inf
            (1e200, 1.4, -0.5, -1.2),
            # past the fold, samples converge and diverge in the same tested step
            (3.0, 1.4, -0.5, -1.2),
        ]
        # 32 and 33 samples sit on either side of the scalar tail's size
        for case in cases:
            params = NormalForm2D(*case)
            for budget in (0, 1, 2, 37, 10_000):
                for n in (1, 32, 33, 100, 4000):
                    got = rho_sampled(params, n_samples=n, orbit_budget=budget, seed=5)
                    with np.errstate(over="ignore"):
                        want = per_step_rho(params, n, budget, 5)
                    assert got == want, (case, budget, n)
        # a NaN or an infinite side is refused before any sample runs
        for case in [
            (2.5, 1.4, math.nan, -1.2),
            (math.nan, 1.4, -0.5, -1.2),
            (math.inf, 1.4, -0.5, -1.2),
        ]:
            with pytest.raises(ValueError, match="finite"):
                NormalForm2D(*case)

    @pytest.mark.parametrize("n", [10, 100])
    def test_overflow_is_a_divergence_not_a_warning(self, n):
        # finite parameters whose first step overflows to inf: 10 samples
        # run in the scalar tail, 100 start in the vector loop
        params = NormalForm2D(1e200, 1.4, -0.5, -1.2)
        with np.errstate(over="ignore", invalid="ignore"):
            want = per_step_rho(params, n, ORBIT_BUDGET, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rho_sampled(params, n_samples=n, seed=1)
        assert got == want

    def test_scalar_tail_takes_over(self, monkeypatch):
        # a cell of the 16x8 measure plane where a few samples stay in the
        # band for the whole budget: they finish in the scalar tail, so the
        # vector step runs fewer times than the budget
        params = NormalForm2D(0.23333333333333334, 1.4, -1.1428571428571428, -1.2)
        seed = mix_seed(1, 1, 2)
        want = per_step_rho(params, 100, ORBIT_BUDGET, seed)
        calls = 0
        vector_step = NormalForm2D.step

        def counted(self, x, y):
            nonlocal calls
            calls += 1
            return vector_step(self, x, y)

        monkeypatch.setattr(NormalForm2D, "step", counted)
        got = rho_sampled(params, n_samples=100, seed=seed)
        assert 0 < calls < ORBIT_BUDGET
        assert got == want
        assert (got.rho_hat, got.undecided_fraction) == (0.86, 0.14)


class TestDirections:
    def test_cached_draw_is_read_only(self):
        pts = sphere._unit_directions(100, 5)
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0, 0] = 1.0
        assert sphere._unit_directions(100, 5) is pts

    def test_interleaved_calls_match_fresh_draws(self):
        # a one-entry cache: each call below replaces the draw the one
        # before kept, and the last repeats the first pair
        params = NormalForm2D(*PT_FOLD)
        for n, seed in ((10_000, 0), (100, 5), (10_000, 0)):
            got = rho_sampled(params, n_samples=n, seed=seed)
            assert np.array_equal(sphere._unit_directions(n, seed), fresh_directions(n, seed))
            assert got == per_step_rho(params, n, ORBIT_BUDGET, seed)
