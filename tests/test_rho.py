"""Attracted-fraction computations: closed form vs direct orbit counting."""

import math

import numpy as np
import pytest

from pwlstab import (
    NormalForm2D,
    OrbitStatus,
    RegimeError,
    orbit,
    rho_closed_form,
    rho_sampled,
)

from conftest import (
    FOLD_PSI,
    FOLD_RHO,
    FOLD_THETA_L_MINUS,
    PT_FOLD,
)


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

    def test_requires_real_left_eigenvalues(self):
        with pytest.raises(RegimeError, match="2\\*sqrt"):
            rho_closed_form(NormalForm2D(2.0, 1.4, -0.5, -1.2))

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
