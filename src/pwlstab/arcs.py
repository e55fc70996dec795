"""The arc graph of the circle map G over [0, pi), and a sub-action on it.

The graph is the symbolic image of G (Osipenko, LNM 1889, 2007).  A
sub-action on it bounds the integral of ln D over every invariant measure of
G (ergodic optimisation, Jenkinson 2019); a cycle of positive weight shows
that none exists.  Imports only ``maps`` and ``errors``, so that every other
layer can build on it.
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
    image cone.  ``rounds`` is the round at which the run stopped, and
    ``eta`` the decay per step that it tested (SUB_ACTION_ETA when it ran).
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
    for tau, delta, arcs in (
        (params.tau_R, params.delta_R, slice(0, half)),
        (params.tau_L, params.delta_L, slice(half, n_arcs)),
    ):
        c0 = 0.5 * (tau * tau + delta * delta + 1.0)
        ca = 0.5 * (tau * tau + delta * delta - 1.0)
        peak = 0.5 * math.atan2(tau, ca) % math.pi
        inside = (edges[arcs] <= peak) & (peak <= edges[1:][arcs])
        d2_max[arcs][inside] = c0 + math.hypot(ca, tau)
    w = 0.5 * np.log(d2_max)

    cone_lo = np.minimum(image[:-1], image[1:]) - ARC_PAD
    cone_hi = np.maximum(image[:-1], image[1:]) + ARC_PAD
    lo = np.searchsorted(edges[1:], cone_lo, "left")
    hi = np.searchsorted(edges[:-1], cone_hi, "right") - 1

    # Range maximum of [lo, hi] as the larger of two overlapping windows of 2^k arcs, read
    # from level k of the sparse table at flat indices (in range, so "clip" clips nothing).
    level = np.floor(np.log2(hi - lo + 1)).astype(np.intp)
    tail = hi - (1 << level) + 1
    table = np.full((int(level.max()) + 1, n_arcs), -np.inf)
    flat, first, second = table.reshape(-1), level * n_arcs + lo, level * n_arcs + tail
    eta = SUB_ACTION_ETA
    base = w + eta
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
            slack = math.log(math.cos(math.pi / (2 * n_arcs))) - (w + top - v)
            t = max(abs(params.tau_L), abs(params.tau_R))
            margin = 2.0**-50 * (2.0 + np.abs(w).max() + v.max() + (1.0 + t) * np.exp(-w.min()))
            return SubAction(edges, w, lo, hi, v, rounds, eta, slack=slack, slack_margin=float(margin))
        if rounds % CYCLE_CHECK_EVERY == 0:
            cycle = _positive_cycle(table, level, lo, tail, base)
            if cycle is not None:
                return SubAction(edges, w, lo, hi, None, rounds, eta, cycle)
        v, new = new, v
    return SubAction(edges, w, lo, hi, None, SUB_ACTION_ROUNDS, eta)


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
