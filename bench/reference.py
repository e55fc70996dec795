"""Reference computations for the planar normal form, written apart from pwlstab.

Uses numpy only and imports nothing from the package under test, so the
benchmark can check the program's outputs against an independent method:

- ``classify_directions`` iterates evenly spread unit directions through the
  two companion matrices with the program's relative thresholds (1e-9,
  1e9) and step budget (10 000), giving the attracted fraction rho_ref;
- ``periodic_orbits`` enumerates periodic ray orbits up to period 8 through
  binary Lyndon words: for each word it takes the positive real
  eigenvectors of the product of side matrices and keeps those whose orbit
  actually follows the word;
- ``verify_witness`` re-checks a claimed expanding periodic ray orbit from
  its angles alone.

A point x lies on the left side when x[0] <= 0 (the program's convention);
on the switching line x[0] = 0 both matrices agree, so either symbol may
own a ray there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONV = 1e-9
DIV = 1e9
BUDGET = 10_000
# Relative slack for "lies on the side its symbol names" and for orbit closure.
SIDE_TOL = 1e-10


def companion(tau: float, delta: float) -> np.ndarray:
    return np.array([[tau, 1.0], [-delta, 0.0]])


@dataclass(frozen=True)
class DirectionCounts:
    converged: int
    diverged: int
    undecided: int

    @property
    def n(self) -> int:
        return self.converged + self.diverged + self.undecided

    @property
    def rho(self) -> float:
        return self.converged / self.n

    @property
    def undecided_fraction(self) -> float:
        return self.undecided / self.n


def classify_directions(
    point: tuple[float, float, float, float],
    n_dirs: int,
    budget: int = BUDGET,
    conv: float = CONV,
    div: float = DIV,
) -> DirectionCounts:
    """Classify n_dirs directions at angles 2 pi (k + 1/2) / n_dirs on the full circle."""
    tl, dl, tr, dr = point
    ang = 2.0 * math.pi * (np.arange(n_dirs) + 0.5) / n_dirs
    x0, x1 = np.cos(ang), np.sin(ang)
    conv2, div2 = conv * conv, div * div
    n_conv = n_div = 0
    for _ in range(budget):
        if x0.size == 0:
            break
        left = x0 <= 0.0
        tau = np.where(left, tl, tr)
        delta = np.where(left, dl, dr)
        x0, x1 = tau * x0 + x1, -delta * x0
        sq = x0 * x0 + x1 * x1
        c = sq < conv2
        d = ~np.isfinite(sq) | (sq > div2)
        done = c | d
        if done.any():
            n_conv += int(c.sum())
            n_div += int((d & ~c).sum())
            keep = ~done
            x0, x1 = x0[keep], x1[keep]
    return DirectionCounts(n_conv, n_div, int(x0.size))


def lyndon_words(n_max: int) -> list[tuple[int, ...]]:
    """Binary Lyndon words of length 1..n_max (Duval's algorithm); 0 = L, 1 = R."""
    out: list[tuple[int, ...]] = []
    w = [-1]
    while w:
        w[-1] += 1
        out.append(tuple(w))
        m = len(w)
        while len(w) < n_max:
            w.append(w[len(w) - m])
        while w and w[-1] == 1:
            w.pop()
    return out


@dataclass(frozen=True)
class RayOrbit:
    thetas: tuple[float, ...]  # in orbit order, starting from the smallest angle
    multiplier: float

    @property
    def period(self) -> int:
        return len(self.thetas)

    @property
    def lam(self) -> float:
        return math.log(self.multiplier) / self.period


def _follows(point, word, v) -> list[np.ndarray] | None:
    """The orbit of v if each iterate lies on the side its symbol names."""
    tl, dl, tr, dr = point
    mats = (companion(tl, dl), companion(tr, dr))
    z = v
    out = []
    for s in word:
        slack = SIDE_TOL * math.hypot(z[0], z[1])
        if (s == 0 and z[0] > slack) or (s == 1 and z[0] < -slack):
            return None
        out.append(z)
        z = mats[s] @ z
    return out


def _angle(z: np.ndarray) -> float:
    a = math.atan2(z[1], z[0])
    return a + math.pi if a < 0.0 else a


def periodic_orbits(point, p_max: int = 8) -> list[RayOrbit]:
    """Every periodic ray orbit of period <= p_max, each listed once."""
    tl, dl, tr, dr = point
    mats = (companion(tl, dl), companion(tr, dr))
    found: list[RayOrbit] = []
    for word in lyndon_words(p_max):
        prod = np.eye(2)
        for s in word:
            prod = mats[s] @ prod
        tr_p = prod[0, 0] + prod[1, 1]
        det_p = prod[0, 0] * prod[1, 1] - prod[0, 1] * prod[1, 0]
        disc = tr_p * tr_p / 4.0 - det_p
        if disc < 0.0:
            continue
        for mu in {tr_p / 2.0 + math.sqrt(disc), tr_p / 2.0 - math.sqrt(disc)}:
            if mu <= 0.0:
                continue
            # Eigenvector from the larger row of (prod - mu I).
            a, b = prod[0, 0] - mu, prod[0, 1]
            c, d = prod[1, 0], prod[1, 1] - mu
            v = np.array([-b, a]) if abs(a) + abs(b) >= abs(c) + abs(d) else np.array([-d, c])
            nv = math.hypot(v[0], v[1])
            if nv == 0.0:
                continue  # product is a multiple of the identity: orbits not isolated
            v = v / nv
            if v[1] < 0.0 or (v[1] == 0.0 and v[0] < 0.0):
                v = -v
            zs = _follows(point, word, v)
            if zs is None:
                continue
            thetas = [_angle(z) for z in zs]
            start = thetas.index(min(thetas))
            orb = RayOrbit(tuple(thetas[start:] + thetas[:start]), mu)
            if not any(_same_orbit(orb, o) for o in found):
                found.append(orb)
    found.sort(key=lambda o: (o.period, o.thetas[0]))
    return found


def _same_orbit(a: RayOrbit, b: RayOrbit, tol: float = 1e-9) -> bool:
    return a.period == b.period and all(
        abs(x - y) <= tol for x, y in zip(a.thetas, b.thetas)
    )


def verify_witness(point, thetas) -> RayOrbit | None:
    """Re-check an instability witness: the orbit closes, v(theta_0) is an
    eigenvector of the side-matrix product with eigenvalue prod |A z_i|, and
    lambda = ln(multiplier) / p > 0.  Returns the re-derived orbit or None."""
    tl, dl, tr, dr = point
    mats = (companion(tl, dl), companion(tr, dr))
    p = len(thetas)
    if p == 0:
        return None
    z0 = np.array([math.cos(thetas[0]), math.sin(thetas[0])])
    z = z0
    prod = np.eye(2)
    mult = 1.0
    for i in range(p):
        side = 0 if z[0] <= 0.0 else 1
        w = mats[side] @ z
        nw = math.hypot(w[0], w[1])
        mult *= nw
        prod = mats[side] @ prod
        z = w / nw
        nxt = thetas[(i + 1) % p]
        if abs(_angle(z) - nxt) > 1e-7:
            return None
    resid = prod @ z0 - mult * z0
    if math.hypot(resid[0], resid[1]) > 1e-7 * max(1.0, mult):
        return None
    orb = RayOrbit(tuple(thetas), mult)
    return orb if orb.lam > 0.0 else None
