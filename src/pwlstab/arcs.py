"""The arc graph of the circle map G over [0, pi), and sub-actions on it.

The graph is the symbolic image of G (Osipenko, LNM 1889, 2007).  A
sub-action on it bounds the integral of ln D over every invariant measure of
G (ergodic optimisation, Jenkinson 2019); a cycle of positive weight shows
that none exists.  The same solver, run on the absorbing sector with upper
or lower bounds of ln D, gives the sign of growth there (``sector_sign``).
Imports only ``maps`` and ``errors``, so that every other layer can build
on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RegimeError
from .maps import HALF_PI, NormalForm2D

# Decay per step that a sub-action certifies, and the rounds its
# Bellman-Ford run may take.
SUB_ACTION_ETA = 1e-6
SUB_ACTION_ROUNDS = 100
# Rounds between two searches for a cycle of positive weight.
CYCLE_CHECK_EVERY = 8
# Padding, in radians, of each arc's image cone.
ARC_PAD = 1e-12


@dataclass(frozen=True)
class SubAction:
    """Arc graph of the circle map over [0, pi), and a sub-action on it.

    Arc i is [edges[i], edges[i + 1]].  ``w[i]`` bounds ln D from above on
    the arc, and its successors are the arcs lo[i] .. hi[i] that meet its
    image cone.  ``rounds`` is the round at which the run stopped (0 when
    some w is not finite: then no run is made, and v and cycle are None),
    and ``eta`` the decay per step that it tested (SUB_ACTION_ETA when it ran).
    When v converged, v >= 0 and v_i >= w_i + eta + max(v[lo_i .. hi_i])
    for every arc, so along every orbit the sum of ln D over t steps is at most
    -eta * t + max(v) - min(v), and ``cycle`` is None.  Then ``slack[i]``
    is ln cos(pi / 2n) - (w_i + max(v[lo_i .. hi_i]) - v_i), and a slack
    above ``slack_margin`` on every arc proves that the star region with
    radius exp(-(v_i - min v)) on arc i maps into itself.  Otherwise ``v``
    is None, and ``cycle`` is either a closed walk of arcs, each one a
    successor of the one before and the first a successor of the last,
    whose sum of w + eta is positive, which proves that no sub-action
    exists; or None when the round budget ran out.
    """

    edges: np.ndarray
    w: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    v: np.ndarray | None
    rounds: int
    eta: float
    cycle: np.ndarray | None = None
    slack: np.ndarray | None = None
    slack_margin: float = 0.0


def sub_action(params: NormalForm2D, n_arcs: int) -> SubAction:
    """Bound the top Lyapunov exponent over the invariant measures of G.

    Cuts [0, pi) into ``n_arcs`` equal arcs (an even number, so that the
    switching ray pi/2 is an edge), each acted on by its own side's matrix.
    On one side D^2 = c0 + ca cos 2t + cb sin 2t with c0 = (tau^2 + delta^2
    + 1) / 2, ca = (tau^2 + delta^2 - 1) / 2 and cb = tau, so its maximum on
    an arc is at an end, or c0 + hypot(ca, cb) at t* = atan2(cb, ca) / 2 mod
    pi when t* lies in the arc; w is half the log of that maximum.  G is
    monotone on each side, so the image of an arc is the cone between the
    images of its ends, padded by ARC_PAD, and its successors form one
    index range.

    Jacobi Bellman-Ford, v <- max(0, w + eta + max(v[lo .. hi])) from v = 0,
    stops when v repeats exactly, after at most SUB_ACTION_ROUNDS rounds.
    Each round reads the range maxima from a sparse table at flat indices
    planned once per graph, into buffers that every round reuses; the edges
    and their unit rays come from a per-n cache (``_arc_rays``).  A fixed
    point exists exactly when no cycle of the arc graph has a mean weight
    above -eta, which bounds the integral of ln D by -eta for every
    invariant measure of G (ergodic optimisation on the symbolic image of G).

    Every CYCLE_CHECK_EVERY rounds the run also looks for the converse: a
    cycle of positive weight in the graph that sends each arc to a
    successor where v is largest (``_positive_cycle``).  Such a cycle rules
    out a fixed point, even in rounded arithmetic, so the run stops there
    with v None and the cycle; a run that would converge never meets one,
    and returns the same v at the same round as without the search.

    With W_i the exact maximum of ln D on arc i, a point of the arc at radius
    rho_i = exp(-(v_i - min v)) maps to radius at most exp(W_i) rho_i in arcs
    lo_i..hi_i, where the region's chord over arc j stays at radius cos(pi /
    2n) rho_j or more; so the region maps into itself if ln cos(pi / 2n) - (W_i
    + max v[lo_i..hi_i] - v_i) >= 0 on every arc.  With u = 2^-53 and T =
    max(|tau_L|, |tau_R|), the computed slack s_i errs from that by at most: 3u
    in ln cos; 3u (|w_i| + max v + 1) in its three sums, the range maximum
    being exact; and W_i - w_i <= 5u + 4u (T + 1) exp(-w_i) + 2u |w_i| in w,
    since cos and sin err by 2u, x = tau c + s by 3u (T + 1) + u |x|, D^2 at an
    arc end by 9u D^2 + 6u (T + 1) D and the peak value by 10u of itself, while
    a peak misplaced across an arc end raises w_i or moves D^2 to second order
    (ARC_PAD pads the cone ends).  So s_i > slack_margin = 2^-50 (2 + max |w| +
    max v + (1 + T) exp(-min w)) on every arc proves it.  Exact arithmetic
    gives s_i >= eta + ln cos(pi / 2n), 7.06e-7 at n = 2048.
    """
    # a huge tau overflows D^2, and a bound that is not finite certifies nothing
    with np.errstate(all="ignore"):
        edges, w, _, lo, hi = _arc_graph(params, n_arcs)
    eta = SUB_ACTION_ETA
    if not np.isfinite(w).all():
        return SubAction(edges, w, lo, hi, None, 0, eta)
    v, top, rounds, cycle = _fixed_point(w + eta, lo, hi)
    if v is None:
        return SubAction(edges, w, lo, hi, None, rounds, eta, cycle)
    slack = math.log(math.cos(math.pi / (2 * n_arcs))) - (w + top - v)
    t = max(abs(params.tau_L), abs(params.tau_R))
    margin = 2.0**-50 * (2.0 + np.abs(w).max() + v.max() + (1.0 + t) * np.exp(-w.min()))
    return SubAction(edges, w, lo, hi, v, rounds, eta, slack=slack, slack_margin=float(margin))


def sector_sign(params: NormalForm2D) -> int | None:
    """Whether the orbits in the sector [0, theta_Lambda] contract (1) or
    expand (0); None when neither is certified.

    theta_Lambda = G(0) is read through ``step_scalar``.  G is continuous on
    [0, pi), so the forward closure in the arc graph of the arcs that meet
    [0, theta_Lambda] (padded by ARC_PAD) is the arcs 0 .. K, with K the
    smallest index at or past the sector's last arc such that hi[i] <= K
    for every i <= K; so no arc of it has a successor outside.
    On that subgraph a fixed point of ``_fixed_point`` with base w + eta
    is a sub-action, and with base -w_lo + eta a super-action:
    v_i >= -w_lo_i + eta + max v[lo_i .. hi_i] sums along every orbit to a
    sum of ln D over t steps of at least eta t - max v, so every orbit in
    the sector expands.  Tried at n = 256 arcs and then 2048: no chord
    term enters, since the claim is about orbits, not a region.

    Rounding, with u = 2^-53 and T = max(|tau_L|, |tau_R|): ``sub_action``
    bounds W_i - w_i by 5u + 4u (T + 1) exp(-w_i) + 2u |w_i|, and the same
    holds for w_lo_i - W_lo_i with W_lo_i the exact minimum of ln D, save
    that the trough's quotient errs by 12u of itself (6u in ln D).  So w
    takes the margin m_i = 2^-50 (2 + |w_i| + (1 + T) exp(-w_i)) up, and
    w_lo its own m_i down; m_i also covers the rounding of the base's two
    sums.  At a fixed point each v_i = max(0, fl(base_i + top_i)), which
    errs by at most u (|base_i| + max v), so 2^-52 (max |base| + max v + 1)
    < eta / 2 leaves a decay (or growth) of eta / 2 per step in exact
    arithmetic.  A cycle of positive weight stops the run as in
    ``sub_action``; that bound carries over to any base.
    """
    x, y = params.step_scalar(1.0, 0.0)
    theta_lambda = math.atan2(y, x)
    t = max(abs(params.tau_L), abs(params.tau_R))
    eta = SUB_ACTION_ETA

    def pad(lnd):
        return 2.0**-50 * (2.0 + np.abs(lnd) + (1.0 + t) * np.exp(-lnd))

    for n_arcs in (256, 2048):
        # a huge tau overflows D^2, and a base that is not finite certifies nothing
        with np.errstate(all="ignore"):
            edges, w, w_lo, lo, hi = _arc_graph(params, n_arcs)
            k = min(int(np.searchsorted(edges, theta_lambda + ARC_PAD, "right")), n_arcs) - 1
            reach = np.maximum.accumulate(hi)
            while reach[k] > k:
                k = int(reach[k])
            w, w_lo, lo, hi = w[: k + 1], w_lo[: k + 1], lo[: k + 1], hi[: k + 1]
            bases = ((1, w + pad(w) + eta), (0, eta - (w_lo - pad(w_lo))))
        for sign, base in bases:
            if not np.isfinite(base).all():
                continue
            v = _fixed_point(base, lo, hi)[0]
            if v is not None and 2.0**-52 * (np.abs(base).max() + v.max() + 1.0) < 0.5 * eta:
                return sign
    return None


def _arc_graph(params: NormalForm2D, n_arcs: int):
    """The arc graph of ``sub_action``: (edges, w, w_lo, lo, hi).

    w_lo[i] bounds ln D from below on arc i, as w[i] bounds it from above.
    On one side the minimum of D^2 lies at an arc end, or at the trough t* +
    pi/2, where D^2 is delta^2 over the peak value: the two are the squared
    singular values of the side matrix, whose product is delta^2.  An
    underflow of that quotient to 0 gives w_lo = -inf, a bound that holds.
    """
    if not params.in_sign_regime:
        raise RegimeError("requires delta_L > 0 and delta_R < 0")
    if n_arcs < 2 or n_arcs % 2:
        raise ValueError("n_arcs must be even and at least 2")
    half = n_arcs // 2
    edges, c, s = _arc_rays(n_arcs)
    # The two sides agree at the edge pi/2, so one image per edge serves the
    # arcs on both sides of it.
    x, y = params.step(c, s)
    image = np.arctan2(y, x)
    d2 = x * x + y * y

    d2_max = np.maximum(d2[:-1], d2[1:])
    d2_min = np.minimum(d2[:-1], d2[1:])
    for tau, delta, arcs in (
        (params.tau_R, params.delta_R, slice(0, half)),
        (params.tau_L, params.delta_L, slice(half, n_arcs)),
    ):
        c0 = 0.5 * (tau * tau + delta * delta + 1.0)
        ca = 0.5 * (tau * tau + delta * delta - 1.0)
        peak = 0.5 * math.atan2(tau, ca) % math.pi
        top = c0 + math.hypot(ca, tau)
        for at, value, bound in (
            (peak, top, d2_max),
            ((peak + HALF_PI) % math.pi, delta * delta / top, d2_min),
        ):
            inside = (edges[arcs] <= at) & (at <= edges[1:][arcs])
            bound[arcs][inside] = value
    w = 0.5 * np.log(d2_max)
    with np.errstate(divide="ignore"):
        w_lo = 0.5 * np.log(d2_min)

    cone_lo = np.minimum(image[:-1], image[1:]) - ARC_PAD
    cone_hi = np.maximum(image[:-1], image[1:]) + ARC_PAD
    lo = np.searchsorted(edges[1:], cone_lo, "left")
    hi = np.searchsorted(edges[:-1], cone_hi, "right") - 1
    return edges, w, w_lo, lo, hi


def _fixed_point(base: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Run v <- max(0, base + max(v[lo .. hi])) from v = 0, as ``sub_action``
    describes, for at most SUB_ACTION_ROUNDS rounds.

    Returns (v, top, rounds, cycle): at a fixed point v, with top the range
    maxima of its last round, and cycle None; at a cycle of positive weight
    (``_positive_cycle``) v None and that cycle; when the budget runs out v
    and cycle None.
    """
    n_arcs = base.size
    # Range maximum of [lo, hi] as the larger of two overlapping windows of 2^k arcs, read
    # from level k of the sparse table at flat indices (in range, so "clip" clips nothing).
    level = np.floor(np.log2(hi - lo + 1)).astype(np.intp)
    tail = hi - (1 << level) + 1
    table = np.full((int(level.max()) + 1, n_arcs), -np.inf)
    flat, first, second = table.reshape(-1), level * n_arcs + lo, level * n_arcs + tail
    v, new, top = np.zeros(n_arcs), np.empty(n_arcs), np.empty(n_arcs)
    for rounds in range(1, SUB_ACTION_ROUNDS + 1):
        table[0] = v
        for k in range(1, table.shape[0]):
            span = 1 << (k - 1)
            np.maximum(table[k - 1, :-span], table[k - 1, span:], out=table[k, :-span])
        flat.take(first, out=top, mode="clip")
        np.maximum(top, flat.take(second, out=new, mode="clip"), out=top)
        np.maximum(0.0, np.add(base, top, out=new), out=new)
        if np.array_equal(new, v):
            return v, top, rounds, None
        if rounds % CYCLE_CHECK_EVERY == 0:
            cycle = _positive_cycle(table, level, lo, tail, base)
            if cycle is not None:
                return None, top, rounds, cycle
        v, new = new, v
    return None, top, SUB_ACTION_ROUNDS, None


@lru_cache(maxsize=4)
def _arc_rays(n_arcs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n_arcs + 1 edges of equal arcs of [0, pi), pi/2 exact, and the
    ``NormalForm2D.unit_ray`` of each: built once per n_arcs, read-only."""
    edges = np.arange(n_arcs + 1) * (math.pi / n_arcs)
    edges[n_arcs // 2] = HALF_PI
    rays = (edges, *NormalForm2D.unit_ray(edges))
    for a in rays:
        a.flags.writeable = False
    return rays


def _positive_cycle(table, level, lo, tail, base) -> np.ndarray | None:
    """A cycle of positive weight in the policy graph of the v in table[0].

    The policy sends arc i to an arc of lo[i] .. hi[i] where v is largest,
    read from an index sparse table over the value table at the flat
    indices level * n + lo and level * n + tail.  It is a functional graph;
    pointer doubling by ``take`` moves every arc 2^K >= n steps forward, onto
    a cycle, so the arcs it lands on are exactly the arcs on cycles, usually
    a few dozen of the n.  Doubling again among those alone, keeping the
    smallest arc passed, labels each cycle by its smallest arc, and the
    weight of base over each cycle is one bincount, summed in arc order.

    A cycle i_1 -> ... -> i_L -> i_1 rules out a fixed point of the rounded
    loop when its computed sum S exceeds
        2^-52 * L * (sum |base_i| + SUB_ACTION_ROUNDS * max(base, 0)).
    At a fixed point v* each arc on the cycle has v*_i >= fl(base_i +
    v*_j) >= base_i + v*_j - u (|base_i| + v*_j), u = 2^-53, since the
    range maximum over i's successors is at least v*_j; summed around the
    cycle, the exact sum is at most u (sum |base_i| + L max v*).  Summing L
    floats in any order moves the sum by at most (L - 1) u sum |base_i|,
    and a fixed point reached within SUB_ACTION_ROUNDS rounds has max v* <=
    SUB_ACTION_ROUNDS * max(base, 0), since each round adds at most
    max(base, 0) to max v.  The doubled unit covers those bounds with room.
    So the loop would not have converged either, and the run can stop.
    Returns the cycle of largest sum, in walk order from its smallest arc.
    """
    vals = table[0]
    n = vals.size
    idx = np.tile(np.arange(n, dtype=np.int32), (table.shape[0], 1))
    for k in range(1, table.shape[0]):
        span = 1 << (k - 1)
        left_wins = table[k - 1, :-span] >= table[k - 1, span:]
        idx[k, :-span] = np.where(left_wins, idx[k - 1, :-span], idx[k - 1, span:])
    first, second = idx.take(level * n + lo), idx.take(level * n + tail)
    policy = np.where(vals.take(first) >= vals.take(second), first, second)

    jump = policy
    for _ in range(max(n - 1, 1).bit_length()):
        jump = jump.take(jump)
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[jump] = True
    # Label the few arcs on cycles by the smallest arc of their cycle: the
    # same doubling, restricted to them, carrying the smallest arc passed.
    arcs = np.flatnonzero(on_cycle)
    step = np.searchsorted(arcs, policy[arcs])
    low = arcs
    for _ in range(max(arcs.size - 1, 1).bit_length()):
        low = np.minimum(low, low.take(step))
        step = step.take(step)
    length = np.bincount(low, minlength=n)
    total = np.bincount(low, base[arcs], minlength=n)
    scale = np.bincount(low, np.abs(base[arcs]), minlength=n)
    margin = 2.0**-52 * length * (scale + SUB_ACTION_ROUNDS * max(float(base.max()), 0.0))
    excess = np.where(length > 0, total - margin, -np.inf)
    best = int(np.argmax(excess))
    if not excess[best] > 0.0:
        return None
    cycle = np.empty(length[best], dtype=np.intp)
    cycle[0] = best
    for t in range(1, cycle.size):
        cycle[t] = policy[cycle[t - 1]]
    return cycle
