"""The arc graph of the circle map G over [0, pi), and sub-actions on it.

The graph is the symbolic image of G (Osipenko, LNM 1889, 2007), built once
per map and arc count by ``arc_graph`` as an ``ArcGraph``: every solver here
reads its bounds, successor ranges and range-maximum plan from that one
object.  A sub-action on it bounds the integral of ln D over every invariant
measure of G (ergodic optimisation, Jenkinson 2019); a cycle of positive
weight shows that none exists.  The same solver, run on the absorbing sector
with upper or lower bounds of ln D, gives the sign of growth there
(``sector_sign``).  Imports only ``maps``, so that every other layer can
build on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
class ArcGraph:
    """The arc graph of the circle map G over [0, pi) (``arc_graph``).

    Arc i is [edges[i], edges[i + 1]].  ``w[i]`` bounds ln D from above on
    the arc and ``w_lo[i]`` from below, and its successors are the arcs
    lo[i] .. hi[i] that meet its image cone.  ``level`` and ``tail`` plan
    the range maximum over those successors: the larger of the two windows
    of 2^level[i] arcs that start at lo[i] and at tail[i], read from level
    ``level[i]`` of a sparse table.  A window reads only arcs lo[i] ..
    hi[i], so ``head`` keeps the plan of the arcs it keeps.
    """

    edges: np.ndarray
    w: np.ndarray
    w_lo: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    tail: np.ndarray

    def head(self, k: int) -> ArcGraph:
        """Arcs 0 .. k as a graph of their own, for a k such that hi[i] <= k
        for every i <= k."""
        rest = (self.w, self.w_lo, self.lo, self.hi, self.level, self.tail)
        return ArcGraph(self.edges[: k + 2], *(a[: k + 1] for a in rest))


@dataclass(frozen=True)
class SubAction:
    """A sub-action on the arc graph of the circle map over [0, pi).

    ``graph`` is the ``ArcGraph`` it was solved on.  ``rounds`` is the round
    at which the run stopped (0 when some graph.w is not finite: then no
    run is made, and v and cycle are None), and ``eta`` the decay per step
    that it tested (SUB_ACTION_ETA when it ran).  When v converged, v >= 0
    and v_i >= w_i + eta + max(v[lo_i .. hi_i]) for every arc, so along
    every orbit the sum of ln D over t steps is at most -eta * t + max(v) -
    min(v), and ``cycle`` is None.  Then ``slack[i]`` is ln cos(pi / 2n) -
    (w_i + max(v[lo_i .. hi_i]) - v_i), and a slack above ``slack_margin``
    on every arc proves that the star region with radius exp(-(v_i - min
    v)) on arc i maps into itself.  Otherwise ``v`` is None, and ``cycle``
    is either a closed walk of arcs, each one a successor of the one before
    and the first a successor of the last, whose sum of w + eta is
    positive, which proves that no sub-action exists; or None when the
    round budget ran out.
    """

    graph: ArcGraph
    v: np.ndarray | None
    rounds: int
    eta: float
    cycle: np.ndarray | None = None
    slack: np.ndarray | None = None
    slack_margin: float = 0.0


def sub_action(params: NormalForm2D, n_arcs: int) -> SubAction:
    """Bound the top Lyapunov exponent over the invariant measures of G.

    Solves on ``arc_graph(params, n_arcs)``: [0, pi) cut into ``n_arcs``
    equal arcs, with w the upper bound of ln D on each and its successors
    one index range.

    Jacobi Bellman-Ford, v <- max(0, w + eta + max(v[lo .. hi])) from v = 0,
    stops when v repeats exactly, after at most SUB_ACTION_ROUNDS rounds.
    Each round reads the range maxima from a sparse table at the flat
    indices of the graph's plan, into buffers that every round reuses.  A
    fixed point exists exactly when no cycle of the arc graph has a mean
    weight above -eta, which bounds the integral of ln D by -eta for every
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
    graph = arc_graph(params, n_arcs)
    w, eta = graph.w, SUB_ACTION_ETA
    # a huge tau overflows D^2, and a bound that is not finite certifies nothing
    if not np.isfinite(w).all():
        return SubAction(graph, None, 0, eta)
    v, top, rounds, cycle = _fixed_point(graph, w + eta)
    if v is None:
        return SubAction(graph, None, rounds, eta, cycle)
    slack = math.log(math.cos(math.pi / (2 * n_arcs))) - (w + top - v)
    t = max(abs(params.tau_L), abs(params.tau_R))
    margin = 2.0**-50 * (2.0 + np.abs(w).max() + v.max() + (1.0 + t) * np.exp(-w.min()))
    return SubAction(graph, v, rounds, eta, slack=slack, slack_margin=float(margin))


def sector_sign(params: NormalForm2D) -> int | None:
    """Whether the orbits in the sector [0, theta_Lambda] contract (1) or
    expand (0); None when neither is certified.

    theta_Lambda = G(0) is read through ``step_scalar``.  G is continuous on
    [0, pi), so the forward closure in the arc graph of the arcs that meet
    [0, theta_Lambda] (padded by ARC_PAD) is the arcs 0 .. K, with K the
    smallest index at or past the sector's last arc such that hi[i] <= K
    for every i <= K; so no arc of it has a successor outside, and those
    arcs form a graph of their own (``ArcGraph.head``).
    On that subgraph a fixed point of ``_fixed_point`` with base w + eta
    is a sub-action, and with base -w_lo + eta a super-action:
    v_i >= -w_lo_i + eta + max v[lo_i .. hi_i] sums along every orbit to a
    sum of ln D over t steps of at least eta t - max v, so every orbit in
    the sector expands.  Both share the subgraph's plan.  Tried at n = 256
    arcs and then 2048: no chord term enters, since the claim is about
    orbits, not a region.

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
        graph = arc_graph(params, n_arcs)
        k = min(int(np.searchsorted(graph.edges, theta_lambda + ARC_PAD, "right")), n_arcs) - 1
        reach = np.maximum.accumulate(graph.hi)
        while reach[k] > k:
            k = int(reach[k])
        sector = graph.head(k)
        w, w_lo = sector.w, sector.w_lo
        # a huge tau overflows the pads, and a base that is not finite certifies nothing
        with np.errstate(all="ignore"):
            bases = ((1, w + pad(w) + eta), (0, eta - (w_lo - pad(w_lo))))
        for sign, base in bases:
            if not np.isfinite(base).all():
                continue
            v = _fixed_point(sector, base)[0]
            if v is not None and 2.0**-52 * (np.abs(base).max() + v.max() + 1.0) < 0.5 * eta:
                return sign
    return None


def arc_graph(params: NormalForm2D, n_arcs: int) -> ArcGraph:
    """The arc graph of G on ``n_arcs`` equal arcs of [0, pi).

    ``n_arcs`` is even, so that the switching ray pi/2 is an edge, and each
    arc is acted on by its own side's matrix.  On one side D^2 = c0 + ca
    cos 2t + cb sin 2t with c0 = (tau^2 + delta^2 + 1) / 2, ca = (tau^2 +
    delta^2 - 1) / 2 and cb = tau, so its maximum on an arc is at an end,
    or c0 + hypot(ca, cb) at the peak t* = atan2(cb, ca) / 2 mod pi when t*
    lies in the arc; w is half the log of that maximum.  Its minimum lies
    at an end, or at the trough t* + pi/2, where D^2 is delta^2 over the
    peak value: the two are the squared singular values of the side
    matrix, whose product is delta^2; w_lo is half the log of that minimum.
    G is monotone on each side, so the image of an arc is the cone between
    the images of its ends, padded by ARC_PAD, and its successors form one
    index range.  The edges and their unit rays come from a per-n cache
    (``_arc_rays``); only ``step`` of those rays depends on the map.

    Built under one ``np.errstate``: a huge tau overflows D^2 to a bound
    that is not finite, which no solver certifies from, and an underflow
    of the trough's quotient to 0 gives w_lo = -inf, a bound that holds.
    """
    params.require_sign_regime()
    if n_arcs < 2 or n_arcs % 2:
        raise ValueError("n_arcs must be even and at least 2")
    half = n_arcs // 2
    edges, c, s = _arc_rays(n_arcs)
    with np.errstate(all="ignore"):
        # The two sides agree at the edge pi/2, so one image per edge serves
        # the arcs on both sides of it.
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
        w_lo = 0.5 * np.log(d2_min)

        cone_lo = np.minimum(image[:-1], image[1:]) - ARC_PAD
        cone_hi = np.maximum(image[:-1], image[1:]) + ARC_PAD
        lo = np.searchsorted(edges[1:], cone_lo, "left")
        hi = np.searchsorted(edges[:-1], cone_hi, "right") - 1
        # Range maximum of [lo, hi] as the larger of two overlapping windows of 2^k arcs.
        level = np.floor(np.log2(hi - lo + 1)).astype(np.intp)
        tail = hi - (1 << level) + 1
    return ArcGraph(edges, w, w_lo, lo, hi, level, tail)


def _fixed_point(graph: ArcGraph, base: np.ndarray):
    """Run v <- max(0, base + max(v[lo .. hi])) on ``graph`` from v = 0, as
    ``sub_action`` describes, for at most SUB_ACTION_ROUNDS rounds.

    Returns (v, top, rounds, cycle): at a fixed point v, with top the range
    maxima of its last round, and cycle None; at a cycle of positive weight
    (``_positive_cycle``) v None and that cycle; when the budget runs out v
    and cycle None.
    """
    n_arcs, level, lo, tail = base.size, graph.level, graph.lo, graph.tail
    # The graph's plan, read from level k of the sparse table at flat indices
    # (in range, so "clip" clips nothing).
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
            cycle = _positive_cycle(table, graph, base)
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


def _positive_cycle(table, graph: ArcGraph, base) -> np.ndarray | None:
    """A cycle of positive weight in the policy graph of the v in table[0].

    The policy sends arc i to an arc of lo[i] .. hi[i] where v is largest,
    read from an index sparse table over the value table at the flat
    indices of the graph's plan, level * n + lo and level * n + tail.  It is
    a functional graph; pointer doubling by ``take`` moves every arc 2^K >=
    n steps forward, onto a cycle, so the arcs it lands on are exactly the
    arcs on cycles, usually
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
    first = idx.take(graph.level * n + graph.lo)
    second = idx.take(graph.level * n + graph.tail)
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
