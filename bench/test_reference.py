"""Quick checks of the benchmark's reference computation against the oracles
frozen in tests/conftest.py."""

import importlib.util
import math
from pathlib import Path

import pytest

import reference as ref

_spec = importlib.util.spec_from_file_location(
    "pwlstab_oracles", Path(__file__).resolve().parent.parent / "tests" / "conftest.py"
)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def test_lyndon_word_counts():
    # Binary Lyndon words: 23 of length <= 6, 71 of length <= 8, 747 of length <= 12.
    assert len(ref.lyndon_words(6)) == 23
    assert len(ref.lyndon_words(8)) == 71
    assert len(ref.lyndon_words(12)) == 747
    assert len(set(ref.lyndon_words(8))) == 71


def test_fold_point_attracted_fraction():
    counts = ref.classify_directions(oracles.PT_FOLD, 4000)
    assert counts.undecided == 0
    # Two arc ends, each misplaced by at most one grid step.
    assert abs(counts.rho - oracles.FOLD_RHO) <= 2.0 / 4000


def test_unstable_point_orbits():
    orbits = ref.periodic_orbits(oracles.PT_UNSTABLE)
    fixed = [o for o in orbits if o.period == 1]
    assert len(fixed) == 1
    assert fixed[0].thetas[0] == pytest.approx(oracles.UNSTABLE_FP, abs=1e-12)
    assert fixed[0].multiplier == pytest.approx(oracles.UNSTABLE_FP_MULT, rel=1e-12)
    by_set = {tuple(sorted(o.thetas)): o for o in orbits if o.period == 3}
    assert len(by_set) == 2
    for thetas, lam in (
        (oracles.P3_EXPANDING, oracles.P3_EXPANDING_LAMBDA),
        (oracles.P3_CONTRACTING, oracles.P3_CONTRACTING_LAMBDA),
    ):
        match = [o for key, o in by_set.items() if all(abs(a - b) < 1e-9 for a, b in zip(key, thetas))]
        assert len(match) == 1
        assert match[0].lam == pytest.approx(lam, abs=1e-9)
    # Each orbit is listed once.
    keys = [(o.period, round(o.thetas[0], 9)) for o in orbits]
    assert len(keys) == len(set(keys))


def test_stable_point_has_no_expanding_orbit_and_attracts_everything():
    assert all(o.lam < 0.0 for o in ref.periodic_orbits(oracles.PT_STABLE))
    counts = ref.classify_directions(oracles.PT_STABLE, 1024)
    assert counts.converged == counts.n


def test_witness_reverification():
    p = oracles.PT_UNSTABLE
    expanding = next(o for o in ref.periodic_orbits(p) if o.lam > 0.0)
    orb = ref.verify_witness(p, expanding.thetas)
    assert orb is not None
    assert orb.lam == pytest.approx(oracles.P3_EXPANDING_LAMBDA, abs=1e-9)
    assert orb.lam == pytest.approx(math.log(orb.multiplier) / 3)
    # A contracting orbit, a broken orbit and a reordered one are not witnesses.
    contracting = next(o for o in ref.periodic_orbits(p) if o.period == 3 and o.lam < 0.0)
    assert ref.verify_witness(p, contracting.thetas) is None
    assert ref.verify_witness(p, (expanding.thetas[0] + 1e-4,) + expanding.thetas[1:]) is None
    assert ref.verify_witness(p, tuple(sorted(expanding.thetas))) is None
