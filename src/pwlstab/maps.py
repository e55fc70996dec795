"""Piecewise-linear continuous maps with a single switching hyperplane.

A map g(x) = A_left x for b.x <= 0 and A_right x for b.x >= 0 is continuous
exactly when the two matrices agree on the hyperplane b.x = 0, i.e. when
A_left - A_right = c b^T for some column c.  Everything in this package
builds on that continuity structure and on positive homogeneity
g(alpha x) = alpha g(x) for alpha >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import RegimeError, ZeroImageError

CONTINUITY_TOL = 1e-12
# A unit vector whose image is shorter than this counts as mapped to the origin.
KERNEL_TOL = 1e-12
HALF_PI = math.pi / 2.0  # angle of the planar form's switching ray x = 0

# Orbit classification defaults: relative radius thresholds and step budget.
CONV_RADIUS = 1e-9
DIV_RADIUS = 1e9
ORBIT_BUDGET = 10_000


@dataclass(frozen=True)
class PWLMap:
    """Continuous piecewise-linear map of R^d with switching plane normal.x = 0.

    Points with normal.x <= 0 are mapped by ``A_left``, points with
    normal.x >= 0 by ``A_right``.  The constructor rejects matrix pairs whose
    difference is not (numerically) rank one with row space spanned by
    ``normal``, since such pairs define a discontinuous map.
    """

    A_left: np.ndarray
    A_right: np.ndarray
    normal: np.ndarray

    def __post_init__(self) -> None:
        al = np.asarray(self.A_left, dtype=float)
        ar = np.asarray(self.A_right, dtype=float)
        b = np.asarray(self.normal, dtype=float)
        if al.ndim != 2 or al.shape[0] != al.shape[1]:
            raise ValueError("A_left must be a square matrix")
        if ar.shape != al.shape:
            raise ValueError("A_left and A_right must have the same shape")
        d = al.shape[0]
        if b.shape != (d,):
            raise ValueError("normal must be a vector of matching dimension")
        bn = float(b @ b)
        if bn == 0.0:
            raise ValueError("normal must be nonzero")
        # Continuity: the difference must vanish on the plane b.x = 0, i.e.
        # M = c b^T.  The best rank-one candidate is c = M b / (b.b); anything
        # left over is a genuine discontinuity.
        m = al - ar
        resid = m - np.outer(m @ b / bn, b)
        scale = max(1.0, float(np.abs(al).max()), float(np.abs(ar).max()))
        if float(np.abs(resid).max()) > CONTINUITY_TOL * scale:
            raise ValueError(
                "matrices disagree on the switching plane; map would be discontinuous"
            )
        object.__setattr__(self, "A_left", al)
        object.__setattr__(self, "A_right", ar)
        object.__setattr__(self, "normal", b)

    @property
    def dim(self) -> int:
        return self.A_left.shape[0]


@dataclass(frozen=True)
class NormalForm2D:
    """Parameter quadruple (tau_L, delta_L, tau_R, delta_R) of the planar form.

    Each side acts by the companion matrix [[tau, 1], [-delta, 0]] and the
    switching line is x = 0.  Construction is allowed for any finite
    parameters, and a NaN or an infinity raises ``ValueError``; the
    individual analyses check their own regime requirements
    (``require_sign_regime`` for the sphere decomposition work and the arc
    graph).

    ``step``, ``step_scalar``, ``log_stretch`` and ``first_exit`` are the
    one definition of the map's step (x, y) -> (tau x + y, -delta x) used
    by the angular and sampled orbits: points with x <= 0 take the left pair
    (tau_L, delta_L), the rest (x > 0 or NaN) the right pair.  Both sides
    agree on x = 0 up to the sign of a zero.

    ``step`` gathers each point's coefficients from two 2-entry tables,
    (tau_R, tau_L) and (-delta_R, -delta_L), indexed by (x <= 0) as an
    integer; they are built once per instance.  The tables are not fields,
    so ==, hash, repr and ``dataclasses.asdict`` see the four parameters
    only.
    """

    tau_L: float
    delta_L: float
    tau_R: float
    delta_R: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.tau_L, self.delta_L, self.tau_R, self.delta_R))):
            raise ValueError(f"parameters must be finite: {self!r}")
        # negated once here; negation is exact
        object.__setattr__(self, "_tau", np.array([self.tau_R, self.tau_L], dtype=float))
        object.__setattr__(
            self, "_neg_delta", np.array([-self.delta_R, -self.delta_L], dtype=float)
        )

    def step(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step of the map on coordinate arrays, elementwise.

        The same multiply and add on the same operands as ``step_scalar``,
        so bit for bit equal to it, signed zeros included.
        """
        side = np.less_equal(x, 0.0).astype(np.intp)  # 1 takes the left pair
        return self._tau[side] * x + y, self._neg_delta[side] * x

    def step_scalar(self, x: float, y: float) -> tuple[float, float]:
        """``step`` on one point, without numpy overhead, for sequential orbits."""
        if x <= 0.0:
            return self.tau_L * x + y, -self.delta_L * x
        return self.tau_R * x + y, -self.delta_R * x

    @staticmethod
    def unit_ray(theta):
        """(cos, sin) of the angle theta, vectorized; ``step`` maps that ray.  The
        switching ray pi/2 is exactly vertical (cos(pi/2) is 6.1e-17 in floats),
        so both sides send it to the positive x-axis."""
        return np.where(theta == HALF_PI, 0.0, np.cos(theta)), np.sin(theta)

    def log_stretch(
        self, x: float, y: float, steps: int, block: int
    ) -> tuple[float, float, float]:
        """``steps`` steps of the unit orbit from (x, y), with the sum of their ln D.

        Runs ``step_scalar``'s arithmetic unnormalised for stretches of
        ``block`` steps (the last may be shorter); after each one the log of
        the norm joins the sum and the point is rescaled to unit length.  A
        norm below KERNEL_TOL raises ``ZeroImageError``.  Returns (sum, x, y)
        at the end; 0 steps return (0.0, x, y).
        """
        tl, ndl, tr, ndr = self.tau_L, -self.delta_L, self.tau_R, -self.delta_R
        hypot, log = math.hypot, math.log
        total = 0.0
        while steps > 0:
            k = block if steps > block else steps
            steps -= k
            for _ in range(k):
                if x <= 0.0:
                    x, y = tl * x + y, ndl * x
                else:
                    x, y = tr * x + y, ndr * x
            d = hypot(x, y)
            if d < KERNEL_TOL:
                raise ZeroImageError("orbit hit the kernel of a side matrix")
            total += log(d)
            x, y = x / d, y / d
        return total, x, y

    def first_exit(self, x: float, y: float, k: int, lo_sq: float, hi_sq: float) -> int:
        """Where ``step_scalar``'s orbit from one point first leaves [lo_sq, hi_sq].

        Tests the squared norm after each of at most k steps and returns 1
        at the first one below lo_sq, -1 at the first one above hi_sq or
        not a number, and 0 when all k stay inside.
        """
        tl, ndl, tr, ndr = self.tau_L, -self.delta_L, self.tau_R, -self.delta_R
        for _ in range(k):
            if x <= 0.0:
                x, y = tl * x + y, ndl * x
            else:
                x, y = tr * x + y, ndr * x
            s = x * x + y * y
            if not lo_sq <= s <= hi_sq:  # NaN fails it too
                return 1 if s < lo_sq else -1
        return 0

    def pwl(self) -> PWLMap:
        """The same map as a ``PWLMap``: companion matrices [[tau, 1], [-delta, 0]]
        of the left and right pairs, switching normal (1, 0)."""
        return PWLMap(
            np.array([[self.tau_L, 1.0], [-self.delta_L, 0.0]]),
            np.array([[self.tau_R, 1.0], [-self.delta_R, 0.0]]),
            np.array([1.0, 0.0]),
        )

    @property
    def in_sign_regime(self) -> bool:
        """delta_L > 0 > delta_R: the regime of the angular-decomposition analyses."""
        return self.delta_L > 0.0 and self.delta_R < 0.0

    def require_sign_regime(self) -> None:
        """Raise ``RegimeError`` outside delta_L > 0 > delta_R (``in_sign_regime``)."""
        if not self.in_sign_regime:
            raise RegimeError("requires delta_L > 0 and delta_R < 0")

    @property
    def left_spiral_bound(self) -> float:
        """tau_L threshold 2*sqrt(delta_L) separating rotation from invariant rays."""
        return 2.0 * math.sqrt(self.delta_L) if self.delta_L > 0 else math.inf

    @property
    def in_certificate_regime(self) -> bool:
        """delta_L > 0 > delta_R and tau_L < 2*sqrt(delta_L): where ga92 applies."""
        return self.in_sign_regime and self.tau_L < self.left_spiral_bound


def eval_pwl(m: PWLMap, x: np.ndarray) -> np.ndarray:
    """Apply the map once.  On the switching plane both branches agree."""
    x = np.asarray(x, dtype=float)
    a = m.A_left if float(m.normal @ x) <= 0.0 else m.A_right
    return a @ x


StepFunction = Union[PWLMap, Callable[[np.ndarray], np.ndarray]]


class OrbitStatus(Enum):
    CONVERGED = "ConvergedToOrigin"
    DIVERGED = "Diverged"
    UNDECIDED = "Undecided"


@dataclass(frozen=True)
class OrbitVerdict:
    """Outcome of iterating a single point.

    ``log_norm_slope`` is the least-squares slope of ln|x_n| against n over
    the whole recorded trajectory, a crude per-step growth rate.  It is 0.0
    when fewer than two finite norms were seen.
    """

    status: OrbitStatus
    steps: int
    final_norm: float
    log_norm_slope: float


def orbit(
    step: StepFunction,
    x0: np.ndarray,
    budget: int = ORBIT_BUDGET,
) -> OrbitVerdict:
    """Iterate ``step`` from x0 and classify convergence to the origin.

    Thresholds are relative to |x0|: converged once |x_n| < CONV_RADIUS*|x0|,
    diverged once |x_n| > DIV_RADIUS*|x0| or the iterate stops being finite.
    ``step`` may be a PWLMap or any callable x -> x'.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    fn = (lambda y: eval_pwl(step, y)) if isinstance(step, PWLMap) else step
    x = np.asarray(x0, dtype=float)
    norm0 = float(np.linalg.norm(x))
    if norm0 == 0.0:
        return OrbitVerdict(OrbitStatus.CONVERGED, 0, 0.0, 0.0)

    lo = CONV_RADIUS * norm0
    hi = DIV_RADIUS * norm0
    lognorms = [math.log(norm0)]
    status = OrbitStatus.UNDECIDED
    steps = 0
    norm = norm0
    for _ in range(budget):
        x = np.asarray(fn(x), dtype=float)
        steps += 1
        norm = float(np.linalg.norm(x))
        if not math.isfinite(norm):
            status = OrbitStatus.DIVERGED
            break
        if norm > 0.0:
            lognorms.append(math.log(norm))
        if norm < lo:
            status = OrbitStatus.CONVERGED
            break
        if norm > hi:
            status = OrbitStatus.DIVERGED
            break

    slope = 0.0
    if len(lognorms) >= 2:
        slope = float(np.polyfit(np.arange(len(lognorms)), np.array(lognorms), 1)[0])
    return OrbitVerdict(status, steps, norm, slope)


@dataclass(frozen=True)
class EigenPair2:
    """One eigenvalue of the companion matrix [[tau, 1], [-delta, 0]].

    Its eigendirection is (1, value - tau).  For a real pair ``angle`` is
    that direction's angle folded into [0, pi); for a complex pair it is
    None.  ``degenerate`` flags a repeated root (tau^2 = 4 delta), where the
    matrix has a single eigendirection and both returned pairs coincide.
    """

    value: complex
    angle: float | None
    degenerate: bool

    @property
    def is_real(self) -> bool:
        return self.value.imag == 0.0


def _direction_angle(slope: float) -> float:
    """Angle in [0, pi) of the direction (1, slope)."""
    a = math.atan(slope)
    return a if a >= 0.0 else a + math.pi


def eig2(tau: float, delta: float) -> tuple[EigenPair2, EigenPair2]:
    """Closed-form eigenpairs of the companion matrix [[tau, 1], [-delta, 0]].

    The one eigen-solve of the planar normal form, taken per side from that
    side's (tau, delta).  Returns the pair ordered (plus-branch,
    minus-branch) by the sign in tau/2 +- sqrt(tau^2/4 - delta).  Where
    tau^2 overflows, the real roots are +-inf and both angles pi/2.
    """
    disc = tau * tau / 4.0 - delta
    if disc < 0.0:
        root = math.sqrt(-disc)
        return (
            EigenPair2(complex(tau / 2.0, root), None, False),
            EigenPair2(complex(tau / 2.0, -root), None, False),
        )

    root = math.sqrt(disc)
    degenerate = root == 0.0
    return tuple(
        EigenPair2(complex(lam, 0.0), _direction_angle(lam - tau), degenerate)
        for lam in (tau / 2.0 + root, tau / 2.0 - root)
    )


def perturbed_map(
    m: PWLMap, c: float, gamma: float, direction: np.ndarray | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Return x -> g(x) + c |x|^(1+gamma) u, a higher-than-linear-order bump.

    gamma > 0 is required so the added term is o(|x|) near the origin; the
    linear part then still decides local stability.  ``direction`` defaults
    to the first coordinate axis.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive; the term must vanish faster than |x|")
    u = np.zeros(m.dim)
    u[0] = 1.0
    if direction is not None:
        u = np.asarray(direction, dtype=float)
        if u.shape != (m.dim,):
            raise ValueError("direction must match the map dimension")

    def step(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x))
        return eval_pwl(m, x) + (c * r ** (1.0 + gamma)) * u

    return step
