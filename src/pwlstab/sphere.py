"""Radial/angular decomposition of the map and dynamics on the half-circle.

Positive homogeneity lets the map factor through the unit sphere: writing
g(z) = D(z) G(z) with D(z) = |g(z)| and G(z) = g(z)/|g(z)|, iterates satisfy
|g^n(z)| = exp(sum_{i<n} ln D(G^i z)).  Orbit growth is therefore governed by
averages of ln D along orbits of G; the origin attracts a direction exactly
when that average is negative.

For the planar normal form with delta_L > 0 > delta_R the range of the map
is the closed upper half-plane, so the circle dynamics reduce to a map of
[0, pi).  Angles use the convention theta = atan2(y, x), with theta = pi/2 on
the ray x = 0; all angle computations go through atan2 of an actual image
vector rather than literal tangent arithmetic, which keeps the branch
bookkeeping out of the formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arcs import sector_sign
from .errors import RegimeError, ZeroImageError
from .maps import (
    CONV_RADIUS, DIV_RADIUS, HALF_PI, KERNEL_TOL, ORBIT_BUDGET, NormalForm2D, PWLMap, eig2,
    eval_pwl,
)

EPS_ANGLE = 1e-9
DEFAULT_BURN_IN = 1_000
DEFAULT_ITERS = 1_000_000


@dataclass(frozen=True)
class SphereMapEval:
    """One application of the sphere decomposition: g(z) = d_value * g_point."""

    d_value: float
    g_point: np.ndarray


def sphere_eval(m: PWLMap, z: np.ndarray) -> SphereMapEval:
    """Evaluate D and G at a unit vector z (|z| must be 1 within 1e-9)."""
    z = np.asarray(z, dtype=float)
    # math.hypot neither overflows nor underflows on the way; an infinite or
    # NaN norm fails the unit check
    if not abs(math.hypot(*z) - 1.0) <= 1e-9:
        raise ValueError("sphere_eval expects a unit vector")
    w = eval_pwl(m, z)
    d = math.hypot(*w)
    if d < KERNEL_TOL:
        raise ZeroImageError("unit vector maps (numerically) to the origin")
    return SphereMapEval(d, w / d)


def angle_of(p: np.ndarray) -> float:
    """Angle in [0, pi) of a finite point in the closed upper half-plane; within
    1e-12 rad below the x-axis, on either side of 0, counts as on it (angle 0)."""
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("point must be finite")
    a = math.atan2(y, x)
    if -math.pi + 1e-12 < a < -1e-12:
        raise ValueError("point is not in the closed upper half-plane")
    return a if 0.0 < a < math.pi else 0.0


def _check_angles(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta >= -1e-12) & (theta < math.pi + 1e-12)):  # NaN fails too
        raise ValueError("angles must lie in [0, pi)")
    return theta


def circle_D(params: NormalForm2D, theta):
    """Radial stretch factor along the ray at angle theta.

    Equals sqrt((tau cos t + sin t)^2 + delta^2 cos^2 t) with the side's
    (tau, delta); evaluated as the norm of the actual image vector.
    Accepts scalars or arrays.
    """
    t = _check_angles(theta)
    x, y = params.step(*params.unit_ray(t))
    out = np.hypot(x, y)
    return float(out) if np.isscalar(theta) or out.ndim == 0 else out

def circle_G(params: NormalForm2D, theta):
    """Induced map of [0, pi): angle of the image of the ray at angle theta.

    Requires delta_L > 0 > delta_R, which pins the image to the closed upper
    half-plane so the angle stays in [0, pi).  G(pi/2) = 0 because the ray
    x = 0 maps to the positive x-axis.  Accepts scalars or arrays.
    """
    params.require_sign_regime()
    t = _check_angles(theta)
    x, y = params.step(*params.unit_ray(t))
    out = np.arctan2(y, x)
    # y >= 0 in regime; the only way to land at exactly pi would be y == 0,
    # x < 0, which the sign pattern rules out.  Guard anyway.  At pi/2 the
    # left pair gives y = -0.0, which folds to +0.0 here.
    out = np.where((out <= 0.0) | (out >= math.pi), 0.0, out)
    return float(out) if np.isscalar(theta) or out.ndim == 0 else out


@dataclass(frozen=True)
class MeasureEstimate:
    """Birkhoff average of ln D along an angular orbit, with batch-mean error."""

    lambda_hat: float
    n_used: int
    burn_in: int
    std_error: float


N_BATCHES = 100
# Bounds on a block of unnormalised steps; see _block_length.
BLOCK_MAX = 32
BLOCK_GROWTH = 1e12
# Relative padding that makes rho_sampled's stretch bounds hold for the
# rounded step, whose stretch can fall below the exact shrink bound by a
# few ulps, and keeps their logarithms away from 0.
STRETCH_PAD = 1e-9

# rho_sampled finishes the last few live samples one at a time: below this
# many, numpy's per-call overhead costs more than a scalar step per sample.
_SCALAR_TAIL = 32


def _stretch_bounds(params: NormalForm2D) -> tuple[float, float]:
    """Bounds (grow, shrink) on the stretch of a vector by one step of the map.

    A side matrix [[tau, 1], [-delta, 0]] stretches a vector by at most its
    Frobenius norm F = sqrt(tau^2 + 1 + delta^2) and by at least |delta| / F,
    its determinant over that bound.  grow is the larger F of the two sides,
    shrink the smaller |delta| / F.  Exact arithmetic; callers pad for
    rounding where they need to.
    """
    sides = ((params.tau_L, params.delta_L), (params.tau_R, params.delta_R))
    bounds = [math.hypot(tau, 1.0, delta) for tau, delta in sides]
    return max(bounds), min(abs(delta) / f for (_, delta), f in zip(sides, bounds))


def _block_length(params: NormalForm2D) -> int:
    """Steps between renormalisations of the Birkhoff orbit.

    The block length is the largest R <= BLOCK_MAX with grow^R <=
    BLOCK_GROWTH and shrink^R >= KERNEL_TOL, and at least 1, where grow and
    shrink are the side bounds of ``_stretch_bounds``.  So a block of R > 1
    steps neither overflows nor shrinks a unit vector below the kernel
    threshold, and no single step in it can either.
    """
    grow, shrink = _stretch_bounds(params)
    r, hi, lo = 1, grow, shrink
    while r < BLOCK_MAX:
        hi *= grow
        lo *= shrink
        if hi > BLOCK_GROWTH or lo < KERNEL_TOL:
            break
        r += 1
    return r


def birkhoff_lambda(
    params: NormalForm2D,
    z0: np.ndarray,
    n: int = DEFAULT_ITERS,
    burn_in: int = DEFAULT_BURN_IN,
) -> MeasureEstimate:
    """Average ln D over n steps of the sphere map started at direction z0.

    The sum telescopes: sum_{i<m} ln D(G^i z) = ln|g^m z| - ln|z|.  So the
    orbit runs unnormalised for blocks of R steps; after each block one norm
    is taken, its log is added to the sum and the vector is rescaled to
    unit length.  ``NormalForm2D.log_stretch`` runs that loop: one call for
    the burn-in, one per batch that is run and one for the tail.  R comes
    from the side matrices (``_block_length``): at most 32, and 1 when a
    single step may overflow or shrink a unit vector below 1e-12.  A block
    norm below 1e-12 raises ``ZeroImageError``, so the kernel check fires
    where a per-step check would.

    Batches are memoised on the exact float state.  Every batch runs the
    same n // batches steps, so its sum and end state are a deterministic
    function of its start state: a dict maps (zx, zy) to (sum, zx, zy) at
    the batch's end, and a batch that starts from a state seen before
    returns those floats without running a block.  lambda_hat and
    std_error are thus bit-identical to the plain block loop, and the dict
    holds at most 100 entries.  Orbits of G often settle onto a cycle of
    float states; one that repeats its state at a batch boundary skips
    every later batch, and most settled orbits do so from their first
    batch.  Burn-in, the n % batches tail and a float cycle longer than a
    batch are run in full.  (+0.0 and -0.0 share a key; states that
    differ only there differ only in the sign of zero coordinates, which no
    branch or norm reads.)

    The first ``burn_in`` steps are discarded so the average samples the
    attractor rather than the transient.  lambda_hat averages all n steps.
    The standard error comes from min(100, n) batch means of n // batches
    steps each, which tolerates the serial correlation of the orbit; the
    n % batches tail steps count in lambda_hat only, and n = 1 gives nan.
    Deterministic: no randomness is involved.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    z = np.asarray(z0, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("z0 must be finite")
    # a start far from unit length is first scaled by an exact power of
    # two, so that its norm neither overflows nor underflows
    big = float(np.max(np.abs(z), initial=0.0))
    if big and not 2.0**-500 <= big <= 2.0**500:
        z = np.ldexp(z, -math.frexp(big)[1])
    r = float(np.linalg.norm(z))
    if r == 0.0:
        raise ValueError("z0 must be nonzero")
    z = z / r

    block = _block_length(params)
    _, zx, zy = params.log_stretch(float(z[0]), float(z[1]), burn_in, block)
    batches = min(N_BATCHES, n)
    size = n // batches
    # every batch runs `size` steps, so its sum and end state depend only on
    # its start state
    batch_memo: dict[tuple[float, float], tuple[float, float, float]] = {}
    sums = []
    for _ in range(batches):
        start = (zx, zy)
        hit = batch_memo.get(start)
        if hit is None:
            hit = batch_memo[start] = params.log_stretch(zx, zy, size, block)
        total, zx, zy = hit
        sums.append(total)
    tail, _, _ = params.log_stretch(zx, zy, n - batches * size, block)
    lambda_hat = math.fsum(sums + [tail]) / n
    std_error = float("nan")
    if batches > 1:
        std_error = float(np.std(np.array(sums) / size, ddof=1) / math.sqrt(batches))
    return MeasureEstimate(lambda_hat, n, burn_in, std_error)


@dataclass(frozen=True)
class GFixedPoint:
    """Fixed ray of the circle map: an eigendirection with positive eigenvalue.

    ``multiplier`` is the eigenvalue, which equals the radial stretch D at the
    fixed angle.  ``side`` is 'left' or 'right', ``branch`` 'plus' or 'minus'
    by the sign of the square root in the eigenvalue formula.
    """

    theta: float
    multiplier: float
    side: str
    branch: str


def g_fixed_points(params: NormalForm2D) -> list[GFixedPoint]:
    """All fixed points of the circle map in [0, pi).

    A ray is fixed exactly when it is an eigendirection of the side matrix
    that owns it, with positive eigenvalue (negative eigenvalues flip the ray
    out of the half-circle).  Eigendirection angles on the wrong side of
    pi/2 are discarded: there the other matrix acts, so the ray is not
    actually invariant.
    """
    params.require_sign_regime()
    out: list[GFixedPoint] = []
    for side, tau, delta in (
        ("left", params.tau_L, params.delta_L),
        ("right", params.tau_R, params.delta_R),
    ):
        for pair, branch in zip(eig2(tau, delta), ("plus", "minus")):
            if not pair.is_real or pair.value.real <= 0.0:
                continue
            theta = pair.angle
            if pair.degenerate and branch == "minus":
                continue  # single eigendirection; already emitted as 'plus'
            if side == "right" and theta <= HALF_PI:
                out.append(GFixedPoint(theta, pair.value.real, side, branch))
            elif side == "left" and theta >= HALF_PI:
                out.append(GFixedPoint(theta, pair.value.real, side, branch))
    out.sort(key=lambda fp: fp.theta)
    return out


@dataclass(frozen=True)
class RegimeReport:
    """Qualitative skeleton of the circle dynamics for one parameter point.

    ``left_regime`` is 'complex_rotation' (no invariant rays in the left
    half: trajectories rotate clockwise through it) or 'two_fixed_points'
    (repelling theta_L_minus < attracting theta_L_plus).  ``theta_Lambda`` is
    the image of angle 0; the sector [0, theta_Lambda] absorbs the right
    half-circle.  ``lambda_invariant`` records whether that sector maps into
    itself; ``lambda_absorbing`` whether every angle eventually enters it,
    taken as tau_L < 2 sqrt(delta_L): false at equality, which
    ``left_regime`` reports as rotation.
    """

    left_regime: str
    left_fixed_points: tuple[float, float] | None
    right_fixed_point: float
    right_multiplier: float
    right_attracting: bool
    theta_Lambda: float
    lambda_invariant: bool
    lambda_absorbing: bool
    warnings: tuple[str, ...]


def classify_regimes(params: NormalForm2D) -> RegimeReport:
    """Classify the circle-map phase portrait; requires delta_L > 0 > delta_R."""
    params.require_sign_regime()
    notes: list[str] = []

    bound = params.left_spiral_bound
    fps = g_fixed_points(params)
    left = [fp for fp in fps if fp.side == "left"]
    right = [fp for fp in fps if fp.side == "right"]

    if params.tau_L <= bound:
        # At equality the two left rays merge into one neutral ray; by
        # convention that boundary is reported as rotation, with a warning.
        left_regime = "complex_rotation"
        left_pair = None
        if params.tau_L == bound:
            notes.append(
                "tau_L is exactly at the repeated-eigenvalue boundary 2*sqrt(delta_L)"
            )
    else:
        left_regime = "two_fixed_points"
        left_pair = (left[0].theta, left[1].theta) if len(left) == 2 else None
        if left_pair is None:
            notes.append("expected two left fixed rays but eigensolve returned fewer")

    if len(right) != 1:
        raise RegimeError("delta_R < 0 must yield exactly one right fixed ray")
    rf = right[0]
    if params.tau_R == 0.0:
        notes.append("tau_R = 0: the right fixed ray is neutral within its side")

    theta_lam = circle_G(params, 0.0)

    if left_regime == "two_fixed_points" and left_pair is not None:
        lam_invariant = not (left_pair[0] < theta_lam < left_pair[1])
    else:
        lam_invariant = True
    lam_absorbing = params.tau_L < bound

    return RegimeReport(
        left_regime=left_regime,
        left_fixed_points=left_pair,
        right_fixed_point=rf.theta,
        right_multiplier=rf.multiplier,
        right_attracting=params.tau_R > 0.0,
        theta_Lambda=theta_lam,
        lambda_invariant=lam_invariant,
        lambda_absorbing=lam_absorbing,
        warnings=tuple(notes),
    )


def rho_closed_form(params: NormalForm2D) -> float:
    """Fraction of directions attracted to the origin, exactly.

    rho = s (1 - b) + l b.  Every direction either enters the sector [0,
    theta_Lambda], where s = 1 when its orbits contract and 0 when they
    expand (``arcs.sector_sign``), or lies in the basin of the attracting
    left ray theta_L_plus, a share b of the circle, where l = [lambda_L_plus
    < 1].

    - Certificate regime, tau_L < 2*sqrt(delta_L): the left half rotates
      into the right one, which G maps into the sector, so b = 0 and rho = s.
    - Closed-form regime, tau_L > 2*sqrt(delta_L) and tau_R > -delta_R /
      (lambda_L_minus - tau_L), the latter exactly invariance of the
      sector: the basin is the arc swept from the repelling left ray
      theta_L_minus to its unique preimage psi in (3pi/2, 2pi) on the full
      circle, so b = (psi - theta_L_minus) / (2 pi).  lambda_L_minus and
      theta_L_minus are the minus pair of ``eig2(tau_L, delta_L)``.
      lambda_L_plus < 1 exactly when p = 1 - tau_L + delta_L > 0 and tau_L
      < 2, since the eigenvalues are the roots of x^2 - tau_L x + delta_L;
      p errs by at most 2^-52 (1 + |tau_L| + delta_L).

    s comes from a sub-action (s = 1) or a super-action (s = 0) on the
    sector's arcs; ``arcs.sector_sign`` gives the rounding argument of each.

    Raises RegimeError outside both regimes, where s is not certified, and
    where p is within its rounding of 0; ArithmeticError when no branch of
    psi fits or G(psi) misses the repelling ray (as where tau_L^2 overflows
    and lambda_L_minus is -inf).
    """
    params.require_sign_regime()
    bound = params.left_spiral_bound
    if params.tau_L < bound:
        b = l = 0.0
    elif not params.tau_L > bound:
        raise RegimeError("closed form requires tau_L != 2*sqrt(delta_L)")
    else:
        b = _basin_share(params)
        p = 1.0 - params.tau_L + params.delta_L
        if abs(p) <= 2.0**-52 * (1.0 + abs(params.tau_L) + params.delta_L):
            raise RegimeError("closed form requires lambda_L_plus != 1")
        l = 1.0 if p > 0.0 and params.tau_L < 2.0 else 0.0
    s = sector_sign(params)
    if s is None:
        raise RegimeError("closed form requires a certified sign in the sector")
    return float(s) * (1.0 - b) + l * b


def _basin_share(params: NormalForm2D) -> float:
    """b = (psi - theta_L_minus) / (2 pi) of ``rho_closed_form``."""
    repelling = eig2(params.tau_L, params.delta_L)[1]
    slope = repelling.value.real - params.tau_L  # tangent of the repelling ray angle
    if not params.tau_R > -params.delta_R / slope:
        raise RegimeError(
            "closed form requires tau_R > -delta_R/(lambda_L_minus - tau_L)"
        )
    theta_minus = repelling.angle  # atan(slope) + pi, since slope < 0

    num = params.delta_L - params.delta_R + (params.tau_L - params.tau_R) * slope
    den = params.delta_L * params.tau_R + (
        1.0 - params.delta_R + params.tau_L * params.tau_R
    ) * slope
    base = math.atan2(num, den)
    # psi - theta_minus lies in the width-pi/2 window (3pi/2, 2pi) - theta_minus,
    # so exactly one branch atan + k*pi fits.
    lo = 1.5 * math.pi - theta_minus
    hi = 2.0 * math.pi - theta_minus
    diff = base
    while diff <= lo:
        diff += math.pi
    if not (lo < diff < hi):
        raise ArithmeticError("branch selection for psi failed; parameters degenerate?")
    psi = theta_minus + diff

    # psi sits in (3pi/2, 2pi): x = cos(psi) > 0, so the right matrix acts.
    x, y = params.step_scalar(math.cos(psi), math.sin(psi))
    img = math.atan2(y, x)
    if abs(img - theta_minus) > EPS_ANGLE:
        raise ArithmeticError(
            "closed-form consistency check failed: G(psi) is not the repelling ray"
        )
    return diff / (2.0 * math.pi)


@dataclass(frozen=True)
class RhoEstimate:
    """Monte-Carlo estimate of the attracted fraction of directions."""

    rho_hat: float
    undecided_fraction: float
    n_samples: int
    seed: int


@functools.lru_cache(maxsize=1)
def _unit_directions(n_samples: int, seed: int) -> np.ndarray:
    """Seeded uniform unit directions, shape (n_samples, 2), read-only.

    ``analyze`` asks for the same (n_samples, seed) at every point, so the
    last draw is kept; the array is shared between callers, hence read-only.
    """
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_samples, 2))
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms < 1e-12):  # essentially never; keeps directions well defined
        bad = norms < 1e-12
        pts[bad] = rng.normal(size=(int(bad.sum()), 2))
        norms = np.linalg.norm(pts, axis=1)
    pts /= norms[:, None]
    pts.flags.writeable = False
    return pts


def rho_sampled(
    params: NormalForm2D,
    n_samples: int = 10_000,
    orbit_budget: int = ORBIT_BUDGET,
    seed: int = 0,
) -> RhoEstimate:
    """Classify orbits of uniformly random unit directions, vectorized.

    Matches ``orbit``'s thresholds on unit starting points: converged when
    the norm drops below CONV_RADIUS, diverged above DIV_RADIUS or on
    non-finite values; anything still alive after the budget is undecided.
    Deterministic for a fixed seed.

    The directions depend only on (n_samples, seed): ``_unit_directions``
    keeps the last draw as a read-only array, so ``analyze``, which asks
    for the same 10 000 at every point, draws them once.  The loop below
    never writes them, and another pair draws afresh from the same stream,
    so the estimate is the same as with a fresh draw on every call.

    Steps on which no sample can leave the band [CONV_RADIUS, DIV_RADIUS]
    run without the exit test.  One step stretches a vector by at most
    grow and at least shrink (``_stretch_bounds``), each padded here by
    1e-9 relative so that they also bound the rounded step.  After each
    test that finds no exit, with squared norms in [q_min, q_max], the next
    j = min(floor(ln(q_min / C^2) / (-2 ln shrink)),
    floor(ln(D^2 / q_max) / (2 ln grow)), steps left - 1)
    steps run untested, then one tested step; j = 0 when shrink = 0, and
    after a test with exits.  Every sample still exits at the step where a
    test on every step would catch it, so the estimate is the same as with
    no skipping.

    A tested step reads only the extremes q_min and q_max, which the skip
    needs anyway, as ``np.minimum.reduce`` and ``np.maximum.reduce`` (the
    ``min``/``max`` methods add a Python-level wrapper per call).  Only
    when q_min < CONV_RADIUS^2, q_max > DIV_RADIUS^2 or a NaN (which makes
    both NaN) shows that some sample left does the loop drop the exits, and
    it drops only the side that was crossed: with q_max in the band every
    sample dropped converged, and with q_min in the band none did.  Both
    sides, or a NaN, take the full mask and a count of the converged.
    The survivors' extremes are not read: q_min or q_max still lies
    outside the band, so the next step is tested and reads fresh ones.
    Once at most _SCALAR_TAIL samples are alive, numpy's per-call
    overhead would outweigh the work, so each finishes alone in
    ``NormalForm2D.first_exit``, tested on every step for the steps left.
    That is the same step on the same floats with the same two comparisons,
    so each sample exits at the same step with the same class.

    The samples run in draw order.  The step acts on each sample alone,
    and the counts and the extreme norms that set the skips do not depend
    on the order, so any order would give the same estimate.  The vector
    loop runs under ``np.errstate(over="ignore", invalid="ignore")``: an
    overflow to inf or an inf - inf = NaN is a divergence the exit test
    catches, as in the scalar tail, which never warns.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if orbit_budget < 0:
        raise ValueError("orbit_budget must be nonnegative")
    pts = _unit_directions(n_samples, seed)

    conv_sq = CONV_RADIUS * CONV_RADIUS
    div_sq = DIV_RADIUS * DIV_RADIUS
    grow, shrink = _stretch_bounds(params)
    grow *= 1.0 + STRETCH_PAD
    shrink *= 1.0 - STRETCH_PAD
    grow_rate = 2.0 * math.log(grow)
    shrink_rate = -2.0 * math.log(shrink) if shrink > 0.0 else 0.0

    x, y = pts[:, 0], pts[:, 1]
    sq = x * x + y * y
    vmin, vmax = np.minimum.reduce, np.maximum.reduce
    lo, hi = float(vmin(sq)), float(vmax(sq))
    n_conv = 0
    left = orbit_budget
    with np.errstate(over="ignore", invalid="ignore"):
        while left > 0 and x.size > _SCALAR_TAIL:
            skip = 0
            # after a step with exits lo or hi lies outside the band, so
            # the next step is tested
            if shrink_rate > 0.0 and conv_sq <= lo and hi <= div_sq:
                skip = min(
                    math.floor(math.log(lo / conv_sq) / shrink_rate),
                    math.floor(math.log(div_sq / hi) / grow_rate),
                    left - 1,
                )
            for _ in range(skip):
                x, y = params.step(x, y)
            x, y = params.step(x, y)
            left -= skip + 1
            sq = x * x + y * y
            lo, hi = float(vmin(sq)), float(vmax(sq))
            # a NaN anywhere makes both lo and hi NaN, which fails all
            # three tests below
            if lo >= conv_sq and hi <= div_sq:
                continue
            if hi <= div_sq:
                # convergences only: every sample dropped converged
                keep = sq >= conv_sq
                n_conv += x.size
                x, y = x[keep], y[keep]
                n_conv -= x.size
            elif lo >= conv_sq:
                # divergences only
                keep = sq <= div_sq
                x, y = x[keep], y[keep]
            else:
                # both sides, or a NaN
                keep = (sq >= conv_sq) & (sq <= div_sq)
                n_conv += int(np.count_nonzero(sq < conv_sq))
                x, y = x[keep], y[keep]
    n_alive = x.size
    if left > 0:
        for x0, y0 in zip(x.tolist(), y.tolist()):
            fate = params.first_exit(x0, y0, left, conv_sq, div_sq)
            n_conv += fate > 0
            n_alive -= fate != 0
    return RhoEstimate(n_conv / n_samples, n_alive / n_samples, n_samples, seed)


def histogram_G(
    params: NormalForm2D,
    theta0: float = 0.0,
    n: int = 100_000,
    bins: int = 400,
) -> tuple[np.ndarray, np.ndarray]:
    """Density histogram over [0, pi) of G(theta0), G^2(theta0), ..., G^n(theta0).

    Returns (density, bin_edges) as from numpy.histogram(density=True); the
    density integrates to 1 over [0, pi).
    """
    params.require_sign_regime()
    if n <= 0:
        raise ValueError("n must be positive")
    th = float(_check_angles(theta0))
    step = params.step_scalar
    # The orbit carries its vector instead of calling cos and sin, rescaled
    # only once it leaves [1e-100, 1e100]; a folded angle restarts at (1, 0).
    x, y = math.cos(th), math.sin(th)
    samples = [0.0] * n
    for i in range(n):
        x, y = step(x, y)
        th = samples[i] = math.atan2(y, x)
        if th < 0.0 or th >= math.pi:
            x, y, samples[i] = 1.0, 0.0, 0.0
        elif not 1e-100 < abs(x) + abs(y) < 1e100:
            x, y = x / math.hypot(x, y), y / math.hypot(x, y)
    return np.histogram(samples, bins=bins, range=(0.0, math.pi), density=True)


@dataclass(frozen=True)
class PeriodicOrbit:
    """Periodic orbit of the circle map with its average log-stretch.

    ``thetas`` lists the orbit from its smallest angle; ``lambda_value`` is
    mean(ln D) over the orbit and ``multiplier`` the product of the D values,
    which is also the eigenvalue of the matrix product along the itinerary.
    """

    thetas: tuple[float, ...]
    period: int
    lambda_value: float
    multiplier: float


def _lyndon_words(n_max: int):
    """Binary Lyndon words of length 1..n_max by Duval's algorithm; 0 = L, 1 = R."""
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < n_max:
            w.append(w[len(w) - m])
        while w and w[-1] == 1:
            w.pop()


def _word_table(cell_sides, p_max: int) -> np.ndarray:
    """Columns (ax, ay, bx, by) of the side-matrix product along every
    binary word of length <= p_max, for each cell's ``sides``: the images
    of e1 and e2 under the word's matrices, applied in order.  Returns an
    array of shape (4, cells, 2^(p_max + 1) - 1), one row per column.

    Entry 2^p - 1 + b holds the word of length p whose k-th symbol is bit k
    of b; entry 0 is the empty word.  Each length appends one symbol to the
    words one shorter, so each product takes the same multiplies and adds,
    in the same order, as a loop over the word's symbols from the identity.
    """
    n = len(cell_sides)
    taus = np.array([[tau for tau, _ in sides] for sides in cell_sides])[:, :, None]
    neg_deltas = np.array([[-delta for _, delta in sides] for sides in cell_sides])[:, :, None]
    # rows (ax, bx) and (ay, by), one column per word of the current length
    x, y = (np.repeat(np.eye(2)[:, k, None, None], n, axis=1) for k in (0, 1))
    xs, ys = [x], [y]
    # a huge tau overflows some products to inf or nan, which ``_screen`` and
    # ``word_orbits`` take without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(p_max):
            x, y = (
                (taus * x[:, :, None] + y[:, :, None]).reshape(2, n, -1),
                (neg_deltas * x[:, :, None]).reshape(2, n, -1),
            )
            xs.append(x)
            ys.append(y)
    (ax, bx), (ay, by) = np.concatenate(xs, axis=2), np.concatenate(ys, axis=2)
    return np.stack((ax, ay, bx, by))


def _eigenray(
    ax: float, ay: float, bx: float, by: float, mu: float
) -> tuple[float, float] | None:
    """Unit eigenvector for eigenvalue mu, in the upper half-plane, of the
    matrix M with columns (ax, ay) and (bx, by).

    None when M is mu times the identity.
    """
    # Orthogonal to the larger row of (M - mu I).
    r0 = math.hypot(ax - mu, bx)
    r1 = math.hypot(ay, by - mu)
    if max(r0, r1) <= 1e-12 * mu:
        return None
    vx, vy = (-bx, ax - mu) if r0 >= r1 else (mu - by, ay)
    n = math.hypot(vx, vy)
    if vy < 0.0 or (vy == 0.0 and vx < 0.0):
        n = -n
    return vx / n, vy / n


def _same_angles(a, b) -> bool:
    return all(abs(x - y) <= EPS_ANGLE for x, y in zip(a, b))


def rotation_products(sides, word) -> tuple[list[float], ...]:
    """Columns (ax, ay, bx, by) of the side-matrix product along each
    rotation of ``word``: entry i for word[i:] + word[:i], as four lists.

    Each product is multiplied out from the identity symbol by symbol, with
    the same multiplies and adds in the same order as ``_word_table``,
    all rotations at once.
    """
    p = len(word)
    symbols = np.asarray(word)[(np.arange(p)[:, None] + np.arange(p)) % p]
    taus = np.array([tau for tau, _ in sides])
    neg_deltas = np.array([-delta for _, delta in sides])
    # rows (ax, bx) and (ay, by), one column per rotation
    x = np.array([np.ones(p), np.zeros(p)])
    y = np.array([np.zeros(p), np.ones(p)])
    for k in range(p):
        s = symbols[:, k]
        x, y = taus[s] * x + y, neg_deltas[s] * x
    (ax, bx), (ay, by) = x.tolist(), y.tolist()
    return ax, ay, bx, by


# Relative slack of ``eigenvalue_floor`` below exp(p * lambda_min): an
# orbit's multiplier equals its eigenvalue only up to the rounding of its
# eigenrays, by at most 4.3e-6 relative over 59 511 measured orbits.
MU_FLOOR_SLACK = 1e-3


def eigenvalue_floor(p: int, lambda_min: float) -> float:
    """The floor ``word_orbits`` takes for a word of length p when only
    orbits with lambda above lambda_min are wanted: exp(p * lambda_min)
    less MU_FLOOR_SLACK of itself (inf where that overflows)."""
    try:
        return math.exp(p * lambda_min) * (1.0 - MU_FLOOR_SLACK)
    except OverflowError:
        return math.inf


def word_orbits(sides, word, products, mu_min: float = 0.0) -> list[PeriodicOrbit]:
    """The periodic ray orbits of G with itinerary ``word`` (0 = L, 1 = R).

    ``sides`` holds (tau, delta) of the left and right side.  ``products``
    holds the columns (ax, ay, bx, by) of the word's rotation products as
    four lists, entry i for word[i:] + word[:i] (``rotation_products``, or
    a word's slice of the scan's rotation-ordered table).  Each eigenvalue
    mu of the word's product above ``mu_min`` gives a candidate: iterate i
    is the upper eigenray of rotation i for mu, which must lie on the side
    that symbol i names, up to EPS_ANGLE past the switching ray pi/2.  Each
    orbit is listed from its smallest angle, with period len(word), which
    may be a multiple of its minimal period.

    An orbit's multiplier, the product of its D values, is mu up to the
    rounding of its eigenrays, so its lambda is ln(mu) / len(word).  The
    default floor 0 skips only the non-positive eigenvalues, which give no
    ray orbit; a floor from ``eigenvalue_floor`` also skips every mu whose
    orbit cannot have lambda above a given bound, before any eigenray is
    built.  A scan's ``_screen`` leaves out only words that this test surely fails.
    """
    p = len(word)
    ax, ay, bx, by = (col[0] for col in products)
    half_tr = 0.5 * (ax + by)
    det = ax * by - bx * ay
    disc = half_tr * half_tr - det
    if disc < 0.0:
        return []
    # det is a product of nonzero deltas, so mu1 != 0; det / mu1 avoids
    # cancellation in the smaller eigenvalue.
    mu1 = half_tr + math.copysign(math.sqrt(disc), half_tr)
    out: list[PeriodicOrbit] = []
    for mu in {mu1, det / mu1}:
        if mu <= mu_min:
            continue
        thetas: list[float] = []
        d_vals: list[float] = []
        for s, *rotation in zip(word, *products):
            z = _eigenray(*rotation, mu)
            # z[0] is the cosine of the angle; both sides own the ray x = 0.
            if z is None or ((z[0] > EPS_ANGLE) if s == 0 else (z[0] < -EPS_ANGLE)):
                break
            a = math.atan2(z[1], z[0])
            thetas.append(a if a > 0.0 else 0.0)
            tau, delta = sides[s]
            d_vals.append(math.hypot(tau * z[0] + z[1], delta * z[0]))
        else:
            start = thetas.index(min(thetas))
            orbit = tuple(thetas[start:] + thetas[:start])
            lam = sum(math.log(d) for d in d_vals) / p
            out.append(PeriodicOrbit(orbit, p, lam, math.prod(d_vals)))
    return out


SCREEN_MARGIN = 1e-9  # relative; ``_screen``'s squares and math.hypot differ by ulps


@functools.lru_cache(maxsize=8)
def _scan_plan(p_max: int) -> tuple:
    """The binary Lyndon words of length <= p_max, and the index arrays that
    read them in rotation order: per word its length and the column of its
    first rotation; per rotation, end to end (rotation i of a word is
    word[i:] + word[:i]), its ``_word_table`` entry, whether it starts with
    L, and its word's index."""
    words = tuple(_lyndon_words(p_max))
    lengths = np.array([len(word) for word in words])
    rot_rows = np.array([
        (1 << len(word)) - 1 + sum(s << k for k, s in enumerate(word[i:] + word[:i]))
        for word in words for i in range(len(word))
    ])
    rot_left = np.array([s == 0 for word in words for s in word])
    rot_word = np.repeat(np.arange(len(words)), lengths)
    return words, lengths, np.cumsum(lengths) - lengths, rot_rows, rot_left, rot_word


def _screen(rot: np.ndarray, p_max: int, floors: np.ndarray) -> np.ndarray:
    """Which (cell, Lyndon word) pairs may give an orbit in ``word_orbits``,
    from the rotation-ordered table ``rot`` (``_word_table`` at the plan's
    ``rot_rows``: a word's first rotation at its start, the others after
    it).  The eigenvalues are ``word_orbits``'s bit for bit (``floors`` by
    length).  A word is dropped only when each eigenvalue above its floor
    has a rotation whose eigenray surely fails the side test: no row tie
    in ``_eigenray`` within SCREEN_MARGIN, and a cosine past EPS_ANGLE on
    the wrong side by that margin.  NaN, inf or |M - mu I| < 1e-100 keeps it."""
    _, lengths, starts, _, rot_left, rot_word = _scan_plan(p_max)
    wide = (1.0 + SCREEN_MARGIN) ** 2
    with np.errstate(all="ignore"):
        ax, ay, bx, by = rot[:, :, starts]
        half_tr = 0.5 * (ax + by)
        det = ax * by - bx * ay
        disc = half_tr * half_tr - det
        mu1 = half_tr + np.copysign(np.sqrt(disc), half_tr)
        mus = np.stack((mu1, det / mu1))
        live = ~(disc < 0.0) & ~(mus <= floors[lengths])
        e, c, r = np.nonzero(live[:, :, rot_word])  # rotations of live eigenvalues
        ax, ay, bx, by = rot[:, c, r]
        mu = mus[e, c, rot_word[r]]
        q0 = (ax - mu) * (ax - mu) + bx * bx
        q1 = ay * ay + (by - mu) * (by - mu)
        row0 = q0 > wide * q1
        q = np.where(row0, q0, q1)
        vx, vy = np.where(row0, -bx, mu - by), np.where(row0, ax - mu, ay)
        sure = (row0 | (q1 > wide * q0)) & (q > 1e-200)  # squares far from underflow
        positive = (vx > 0.0) != ((vy < 0.0) | ((vy == 0.0) & (vx < 0.0)))
        fails = sure & (vx * vx > EPS_ANGLE * EPS_ANGLE * wide * q) & (positive == rot_left[r])
    dead = np.zeros_like(live)
    dead[e[fails], c[fails], rot_word[r[fails]]] = True
    return (live & ~dead).any(axis=0)


def periodic_orbits_many(
    cells: list[NormalForm2D], p_max: int = 6, lambda_min: float | None = None
) -> list[list[PeriodicOrbit]]:
    """``periodic_orbits_G`` of each map in a nonempty list, from one word
    table gathered into rotation order, so that each Lyndon word's rotations
    sit side by side; ``_screen`` first drops the (cell, word) pairs that
    surely give none, and each word kept goes to ``word_orbits`` with its
    own slice of the table."""
    for params in cells:
        params.require_sign_regime()
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    sides = [((c.tau_L, c.delta_L), (c.tau_R, c.delta_R)) for c in cells]
    floors = [0.0 if lambda_min is None else eigenvalue_floor(p, lambda_min)
              for p in range(p_max + 1)]
    words, _, starts, rot_rows, _, _ = _scan_plan(p_max)
    rot = _word_table(sides, p_max)[:, :, rot_rows]
    keep = _screen(rot, p_max, np.array(floors))
    out = []
    for c, kept in enumerate(keep):
        orbits: list[PeriodicOrbit] = []
        listed: dict[int, list[tuple[float, ...]]] = {}  # orbit angles by period
        for w in np.flatnonzero(kept).tolist():
            word, start = words[w], starts[w]
            p = len(word)
            products = rot[:, c, start : start + p].tolist()
            for orbit in word_orbits(sides[c], word, products, floors[p]):
                thetas = orbit.thetas
                if any(p % q == 0 and _same_angles(thetas, thetas[q:] + thetas[:q])
                       for q in range(1, p)):
                    continue  # a shorter word traces this orbit
                same_period = listed.setdefault(p, [])
                if any(_same_angles(t, thetas) for t in same_period):
                    continue
                same_period.append(thetas)
                orbits.append(orbit)
        out.append(sorted(orbits, key=lambda o: (o.period, o.thetas[0])))
    return out


def periodic_orbits_G(
    params: NormalForm2D, p_max: int = 6, lambda_min: float | None = None
) -> list[PeriodicOrbit]:
    """Find the isolated periodic orbits of the circle map with period <= p_max.

    A periodic ray orbit with itinerary w (the side, L or R, of each iterate)
    is a positive real eigenvector of the product of side matrices along w
    whose orbit lies on the sides w names.  The binary Lyndon words of
    length <= p_max, one per cyclic class of itineraries, are enumerated;
    ``_screen`` drops those that surely give no orbit, and the rest go
    through ``word_orbits``.  Each iterate is the eigenvector of the product
    along the word rotated to start there: following the orbit forward would
    amplify rounding along orbits that repel on the circle.  The products of
    all words of length <= p_max are built once per call (``_word_table``,
    2^(p_max + 1) - 1 entries) and gathered once into rotation order, so
    each word's rotation products are one slice.  This is
    ``periodic_orbits_many`` of one map.

    A ray within EPS_ANGLE of the switching ray pi/2 may take either symbol,
    so one orbit can match several words, and a word can trace an orbit of
    smaller period; each orbit is reported once, at its minimal period.
    Words whose product is a multiple of the identity are skipped: their
    orbits form a continuum, not isolated orbits.

    With ``lambda_min`` None every orbit is listed.  With a value, a word of
    length p skips each eigenvalue at or below ``eigenvalue_floor(p,
    lambda_min)``, so the list keeps every orbit with lambda above
    lambda_min, and may keep some just below it, which the caller filters.
    The floor's slack (MU_FLOOR_SLACK) covers the dedup too: an orbit
    listed twice has the same angles within EPS_ANGLE, hence the same D
    values and nearly the same mu, so its twins are kept or skipped alike.
    """
    return periodic_orbits_many([params], p_max, lambda_min)[0]
