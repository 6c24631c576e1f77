"""High-SNR diversity-multiplexing-delay tradeoffs for relay chains.

Covers the three ARQ disciplines on three-node chains (fixed per-hop
windows, a fixed split of a shared round budget, and fully dynamic sharing),
their short-term-static counterparts, and the N-node reductions and bounds
built from contiguous three-node sub-chains.

The dynamic-sharing (VBL) computation is the workhorse: its two-hop
outage-exponent problem collapses to a one-dimensional minimum along the
boundary where the per-hop rate exponents s1, s2 satisfy
s1*s2/(s1+s2) = r/L.  Along that boundary (and along the budget split point
in the short-term static case) the objective is concave between the
preimages of the integer knots of the Zheng-Tse tradeoff curve, so the exact
minimum is the smallest value over a finite candidate set; the closed forms
for the special antenna families serve as independent oracles for it.

Every kernel evaluates the Zheng-Tse curve of a hop through
tradeoff._d_scalar on its corner diversities, held as a tuple of Python
floats (tradeoff._curve), or through the same expression on the curve's
precomputed pieces (the short-term hop tables), and needs no numpy.  The
equalized fixed split reads no curve: it is solved exactly in integers from
the corners, and its value correctly rounded.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache

from .tradeoff import (
    AntennaPair,
    ChannelAssumption,
    Topology,
    _check_rate_scalar,
    _curve,
    _d_scalar,
)

__all__ = [
    "FixedWindowOptimum",
    "fixed_dmdt_3node",
    "fixed_optimal_windows",
    "fbl_dmdt_3node",
    "vbl_dmdt_3node",
    "vbl_closed_form",
    "nnode_vbl_dmdt",
    "nnode_fbl_bounds",
]

def _require_3node(topology: Topology) -> tuple[AntennaPair, AntennaPair]:
    if topology.n_nodes != 3:
        raise ValueError(
            f"operation is defined on three-node chains, got {topology.n_nodes} nodes"
        )
    return topology.hop(0), topology.hop(1)


# ---------------------------------------------------------------------------
# fixed per-hop windows


def fixed_dmdt_3node(
    topology: Topology, window1: int, window2: int, r: float
) -> float:
    """Weakest-link diversity of a three-node chain with fixed windows.

    Each hop stretches its rate requirement over its own window; the chain
    is limited by whichever hop ends up weaker.
    """
    hop1, hop2 = _require_3node(topology)
    if window1 < 1 or window2 < 1:
        raise ValueError(f"windows must be >= 1, got ({window1}, {window2})")
    r = _check_rate_scalar(r)
    return min(
        _d_scalar(_curve(hop1), r / window1), _d_scalar(_curve(hop2), r / window2)
    )


@dataclass(frozen=True)
class FixedWindowOptimum:
    """Best integer window split and the real-valued equalizing split."""

    windows: tuple[int, int]
    value: float
    split: tuple[float, float]
    split_value: float


def fixed_optimal_windows(
    topology: Topology, total_rounds: int, r: float
) -> FixedWindowOptimum:
    """Optimal division of a round budget between the two hops.

    The integer part maximizes the weakest-link diversity over every split
    with window1 + window2 <= total_rounds; ties prefer the more balanced
    split, then the smaller first window.  Each hop's diversity at r/w is
    nondecreasing in the window w, so the splits that tie at the best value
    are a >= a0, b >= b0, a + b <= total_rounds, with a0 and b0 the first
    windows to reach it.  The best value and both windows are bisected, in
    O(log total_rounds) reads of the curves.  The real split equalizes
    d1(r/x) = d2(r/(total - x)); it is solved exactly, and the split and
    split_value are the nearest doubles (_equalized_split).
    """
    hop1, hop2 = _require_3node(topology)
    if total_rounds < 2:
        raise ValueError(f"need at least two rounds to serve two hops, got {total_rounds}")
    r = _check_rate_scalar(r)
    L = int(total_rounds)
    curve1, curve2 = _curve(hop1), _curve(hop2)

    def d1(w: int) -> float:
        return _d_scalar(curve1, r / w)

    def d2(w: int) -> float:
        return _d_scalar(curve2, r / w)

    windows = range(1, L)
    # min(d1(a), d2(L - a)) rises with a until d1 catches up with d2, then
    # falls: the best value sits at the crossing a or the window before it
    a = bisect_left(windows, True, key=lambda a: d1(a) >= d2(L - a)) + 1
    value = max(min(d1(w), d2(L - w)) for w in (a - 1, a) if 0 < w < L)
    a0 = bisect_left(windows, True, key=lambda a: d1(a) >= value) + 1
    b0 = bisect_left(windows, True, key=lambda b: d2(b) >= value) + 1
    # the most balanced tie: equal windows if both fit, else one side at its floor
    c = max(a0, b0)
    w1, w2 = (c, c) if 2 * c <= L else (a0, L - a0) if a0 > b0 else (L - b0, b0)

    return FixedWindowOptimum((w1, w2), value, *_equalized_split(curve1, curve2, L, r))


@cache
def _value_pieces(curve1: tuple[float, ...], curve2: tuple[float, ...]) -> tuple:
    """(w, S1, A1, S2, A2) at 0 and at each corner value w below both tops.

    For v in [w, next w) hop i's curve is on a piece c[j] > v >= c[j + 1]
    and reaches v up to rate argument (Ai - v) / Si, with the integers
    Si = c[j] - c[j + 1] and Ai = c[j] + j Si.  Kept per pair of curves, of
    which antennas 1..MAX_ANTENNAS make at most 36**2.
    """
    def piece(c: tuple[float, ...], w: float) -> tuple[int, int]:  # c[j] > w >= c[j + 1]
        j = sum(v > w for v in c) - 1
        return int(c[j] - c[j + 1]), int(c[j] + j * (c[j] - c[j + 1]))

    top = min(curve1[0], curve2[0])
    knots = sorted({0.0, *(v for v in curve1 + curve2 if v < top)})
    return tuple((int(w), *piece(curve1, w), *piece(curve2, w)) for w in knots)


def _nearest(p: int, q: int, rad: int) -> float:
    """The double nearest p / (q + sqrt(rad)), for integers p, rad >= 0 and q.

    sqrt(rad) is in [s, s + 1) / 2**k for s = isqrt(rad << 2k).  The divisor
    is at least 1/2 where this is used, and int / int rounds correctly, so
    once both ends of that range round alike, the value rounds the same.
    """
    k = 64
    while True:
        s = math.isqrt(rad << 2 * k)
        num, den = p << k, (q << k) + s
        near = num / den
        if s * s == rad << 2 * k or near == num / (den + 1):
            return near
        k *= 2


def _equalized_split(curve1: tuple, curve2: tuple, L: int, r: float) -> tuple[tuple, float]:
    """The split (x, L - x) where d1(r/x) meets d2(r/(L - x)), and that value.

    Hop i reaches diversity v > 0 iff its share of the L rounds is at least
    Xi(v) = r Si / (Ai - v) (_value_pieces), so the equalized value v* is
    the largest v with X1(v) + X2(v) <= L, and x = X1(v*).  With r = M / N,
    that is integer arithmetic: a binary search over the corner values finds
    each curve's piece, and v* is the smaller root of
    L N (A1 - v)(A2 - v) = M (S1 (A2 - v) + S2 (A1 - v)).  v* and each hop's
    share are rounded to the nearest double, so hop 2's share keeps its bits
    where it is below half an ulp of L.  When r/m1 + r/m2 > L, v* is 0 and x
    is the right end of that plateau, r/m1, kept below L; at r = 0 both
    curves are flat at full diversity, and x is the midpoint.
    """
    if r == 0.0:
        return (L / 2.0, L / 2.0), min(curve1[0], curve2[0])
    M, N = r.as_integer_ratio() if r < math.inf else (1, 0)
    LN = L * N

    def short(w: int, s1: int, a1: int, s2: int, a2: int) -> bool:  # X1 + X2 > L
        return M * (s1 * (a2 - w) + s2 * (a1 - w)) > LN * (a1 - w) * (a2 - w)

    pieces = _value_pieces(curve1, curve2)
    i = bisect_left(range(len(pieces)), True, key=lambda i: short(*pieces[i]))
    if i == 0:
        m1 = len(curve1) - 1
        x = min(r / m1, L * (1.0 - 1e-12))
        return (x, (LN * m1 - M) / (N * m1) if x == r / m1 else L - x), 0.0
    _, s1, a1, s2, a2 = pieces[i - 1]
    # v* = 2c / (P + sqrt(P^2 - 4 L N c)), with c >= 0 and P > 0
    P = LN * (a1 + a2) - M * (s1 + s2)
    c = LN * a1 * a2 - M * (s1 * a2 + s2 * a1)
    value = _nearest(2 * c, P, P * P - 4 * LN * c)
    # x = 2 M S1 L / (b + sqrt(D)), D = b^2 + 4 e M S1 L, the root in (0, L)
    # of e x^2 + b x - M S1 L = 0 with e = N (A2 - A1); L - x is the same root
    # with S2, -e and b + 2 e L in place of S1, e and b, and the same D
    e = N * (a2 - a1)
    b = M * (s1 + s2) - e * L
    D = b * b + 4 * e * M * s1 * L
    return (_nearest(2 * M * s1 * L, b, D), _nearest(2 * M * s2 * L, b + 2 * e * L, D)), value


# ---------------------------------------------------------------------------
# fixed split of a shared budget (FBL)


def fbl_dmdt_3node(
    topology: Topology,
    total_rounds: int,
    r: float,
    channel: ChannelAssumption = ChannelAssumption.LONG_TERM_STATIC,
    *,
    allow_zero_rounds: bool = False,
) -> float:
    """Diversity of the shared-budget protocol with an offline round split.

    One round of the budget is spent on the decision overhead, and the rest
    is split as l1 + l2 = total_rounds - 1.  Long-term static channels add
    the two per-hop diversities; short-term static channels weight each by
    its round count.

    allow_zero_rounds widens the enumeration to splits that starve one hop
    completely.  A starved hop always "times out" with probability one, so
    its term carries no SNR exponent and contributes zero.  The default
    enumeration requires a round per hop; see the ordering discussion in the
    tests for why the widened range is the one that keeps this protocol
    below the dynamic-sharing optimum everywhere.
    """
    hop1, hop2 = _require_3node(topology)
    r = _check_rate_scalar(r)
    low = 0 if allow_zero_rounds else 1
    data_rounds = int(total_rounds) - 1
    if data_rounds < 2 * low or data_rounds < 1:
        need = 3 if low else 2
        raise ValueError(
            f"total_rounds={total_rounds} leaves no valid split"
            f" (need at least {need} rounds)"
        )
    short_term = channel is ChannelAssumption.SHORT_TERM_STATIC
    curve1, curve2 = _curve(hop1), _curve(hop2)

    def term(curve: tuple[float, ...], l: int) -> float:
        # nonnegative and never -0.0, so term + term is 0 + term + term
        if l == 0:
            return 0.0
        return l * _d_scalar(curve, r / l) if short_term else _d_scalar(curve, r / l)

    best = math.inf
    for l1 in range(low, data_rounds - low + 1):
        best = min(best, term(curve1, l1) + term(curve2, data_rounds - l1))
    return best


# ---------------------------------------------------------------------------
# dynamic budget sharing (VBL)


def _vbl_long_term(hop1: AntennaPair, hop2: AntennaPair, c: float) -> float:
    """Minimum summed diversity on the boundary s1*s2/(s1+s2) = c.

    Along the boundary d1(s1) is linear between integer s1 and
    d2(c*s1/(s1 - c)) is concave between the preimages of hop 2's integer
    knots, so the minimum sits on one of those kinks or an endpoint.

    At the endpoint s1 = lo = c*m2/(m2 - c), s2 is hop 2's last knot m2,
    where d2 = 0 exactly.  Computing s2 there would cancel: s1 - c keeps
    few correct digits when c is small (s2 lands below m2 and d2 comes out
    positive), and once c < ~1e-16 * m2, lo rounds onto c or just below
    it, where s1 - c is 0 or negative; the max keeps every s1 >= c.
    """
    m1, m2 = hop1.min_dim, hop2.min_dim
    curve1, curve2 = _curve(hop1), _curve(hop2)
    if c == 0.0:
        return min(curve1[0], curve2[0])
    cap = m1 * m2 / (m1 + m2)
    if c >= cap:
        return 0.0
    lo = max(c * m2 / (m2 - c), c)
    hi = float(m1)
    cands = {lo, hi}
    for k in range(1, m1 + 1):
        if lo < k < hi:
            cands.add(float(k))
    for k in range(1, m2 + 1):
        if k > c:
            s1 = k * c / (k - c)
            if lo < s1 < hi:
                cands.add(s1)
    return min(
        _d_scalar(curve1, s1)
        + (0.0 if s1 == lo else _d_scalar(curve2, c * s1 / (s1 - c)))
        for s1 in cands
    )


def _partial_round_costs(
    curve: tuple[float, ...], min_dim: int, r: float, taus: set[float]
) -> dict[float, float]:
    """Exponent of one hop failing to decode within tau rounds, for each tau.

    tau = m + f with m whole rounds and a final fraction f; the rate budget
    splits as m*s + f*y >= r with per-round costs d(s) and d(y) (fresh
    fades).  Even spreading over the whole rounds is optimal (the curve is
    convex), and the remaining one-dimensional minimum over y sits at a knot
    of either piecewise-linear term, so only knots and endpoints are tried.

    d is _d_scalar on the curve's (lo, slope) pieces, formed once a call,
    and the terms that depend on m alone are formed once per m; every value
    has the bits of _d_scalar's per-tau evaluation (tests/oracles.py).
    """
    top, d0 = len(curve) - 1, curve[0]
    pieces = [(curve[j], curve[j + 1] - curve[j]) for j in range(top)]

    def d(s: float) -> float:
        if s >= top:
            return 0.0
        if s <= 0.0:
            return d0
        j = int(s)
        lo, slope = pieces[j]
        return lo + (s - j) * slope

    knots = [d(float(k)) for k in range(min_dim + 1)]
    dim = float(min_dim)
    rounds = {}  # m -> (the y = 0 candidate, (k, r - m*k, d(k)) for each knot k)
    costs = {}
    for tau in taus:
        if tau <= 0.0:
            costs[tau] = 0.0
            continue
        f = tau - math.floor(tau) or 1.0  # a whole tau ends on a full round
        m = math.ceil(tau) - 1
        ycap = min(dim, r / f) if r > 0.0 else 0.0
        best = d(ycap)  # m = 0: the final round carries all of r
        if m > 0:  # y = ycap, y = 0, then the knots of d(y) and of d((r - f*y)/m)
            if m not in rounds:
                rounds[m] = m * d(r / m) + knots[0], [
                    (k, r - m * k, knots[k]) for k in range(1, min_dim + 1)
                ]
            at_zero, triples = rounds[m]
            best += m * d((r - f * ycap) / m)
            if at_zero < best:
                best = at_zero
            for k, rest, dk in triples:
                if k < ycap:
                    c = m * d((r - f * k) / m) + dk
                    if c < best:
                        best = c
                y = rest / f  # k = 0 would give r / f >= ycap
                if 0.0 < y < ycap:
                    c = m * d((r - f * y) / m) + d(y)
                    if c < best:
                        best = c
        costs[tau] = best
    return costs


def _kink_fractions(min_dim: int, r: float, m: int) -> set[float]:
    """Final-round fractions f in (0, 1) where a hop's cost over m + f kinks.

    Every kink of a hop's cost in f is where a rate argument, r/f,
    (r - f*y)/m or (r - m*k)/f, crosses an integer knot: f = (r - m*a)/b,
    a = 0..min_dim, b = 1..min_dim.  Each m + f is a key of the hop's table,
    the {tau: cost} of its curve that one call builds and then drops; the
    sets themselves are kept per min_dim, in m order, for that call
    (_vbl_short_term).
    """
    fracs = set()
    for a in range(min_dim + 1):
        rest = r - m * a
        if not rest > 0.0:  # nonincreasing in a: no f > 0 from here on
            break
        for b in range(1, min_dim + 1):
            f = rest / b
            if 0.0 < f < 1.0:
                fracs.add(f)
    return fracs


def _vbl_short_term(
    hop1: AntennaPair, hop2: AntennaPair, total_rounds: int, r: float, tables: dict
) -> float:
    """Best split point tau of the round budget between the two hops.

    Between consecutive candidates (the whole-round splits and each hop's
    kinks, m + f on hop 1's side and L - m - f on hop 2's) both hop costs
    are concave in tau, so their sum is too and its minimum over the budget
    sits on a candidate.

    A hop's cost at tau depends on its curve and r alone: tables maps each
    curve to its table {tau: cost}, filled here with the taus it lacks, and
    each min_dim to its kink sets, the list of _kink_fractions for
    m = 0, 1, ...  A public call makes its tables at one r and drops them
    when it returns, so the hops, windows and budgets of that call that
    share a curve or a min_dim share them.
    """
    L = int(total_rounds)
    kinks = []
    for dim in (hop1.min_dim, hop2.min_dim):
        sets = tables.setdefault(dim, [])
        sets.extend(_kink_fractions(dim, r, m) for m in range(len(sets), L))
        kinks.append(sets)
    kinks1, kinks2 = kinks

    taus = {float(t) for t in range(L + 1)}
    for m in range(L):
        taus.update([m + f for f in kinks1[m]])
        taus.update([L - m - f for f in kinks2[m]])
    costs = []
    for hop, need in ((hop1, taus), (hop2, {L - tau for tau in taus})):
        curve = _curve(hop)
        table = tables.setdefault(curve, {})
        table.update(_partial_round_costs(curve, hop.min_dim, r, need - table.keys()))
        costs.append(table)
    cost1, cost2 = costs
    return min(cost1[tau] + cost2[L - tau] for tau in taus)


def _vbl_weakest(subs, L: int, r: float, channel, tables: dict) -> float:
    """Weakest dynamic-sharing value over three-node chains, at budget L."""
    if L < 1:
        raise ValueError(f"total_rounds must be >= 1, got {L}")
    r = _check_rate_scalar(r)
    if channel is not ChannelAssumption.SHORT_TERM_STATIC:
        return min(_vbl_long_term(sub.hop(0), sub.hop(1), r / L) for sub in subs)
    return min(_vbl_short_term(sub.hop(0), sub.hop(1), L, r, tables) for sub in subs)


def vbl_dmdt_3node(
    topology: Topology,
    total_rounds: int,
    r: float,
    channel: ChannelAssumption = ChannelAssumption.LONG_TERM_STATIC,
) -> float:
    """Optimal diversity when the round budget is shared dynamically.

    Long-term static: exact minimum of the reduced two-hop exponent problem
    over the kinks of its boundary (see module docstring).  Short-term
    static: exact minimum over the candidate split points of the budget,
    with per-round costs and a fractional final round on each side.

    A rate too high for the chain to support at all yields zero diversity.
    """
    _require_3node(topology)
    return _vbl_weakest((topology,), total_rounds, r, channel, {})


def vbl_closed_form(topology: Topology, total_rounds: int, r: float) -> float:
    """Closed-form optimal diversity for the three special antenna families.

    Families: (M1, 1, M3) and (1, M, 1), both min{M1,M3} * (1-2c)/(1-c) for
    c = r/total_rounds up to c = 1/2; and (2, 2, 2) with two linear-fractional
    branches meeting at c = 2/3.

    For (2, 2, 2) the published three-branch form inserts a middle branch on
    (1/2, 2/3) whose value sits strictly above the true optimum there (it is
    the cost of the boundary knot at s1 = 1, which is not the global
    minimizer on that band).  This form follows the true optimum, which is
    what the numeric search finds.
    """
    if topology.n_nodes != 3:
        raise ValueError("closed forms cover three-node chains only")
    m1, m2, m3 = topology.antennas
    if total_rounds < 1:
        raise ValueError(f"total_rounds must be >= 1, got {total_rounds}")
    c = _check_rate_scalar(r) / total_rounds

    if m2 == 1 or (m1 == 1 and m3 == 1):
        # (M1, 1, M3) family, and (1, M, 1) via the same bottleneck argument
        strength = m2 if m2 > 1 else min(m1, m3)
        if c >= 0.5:
            return 0.0
        return strength * (1.0 - 2.0 * c) / (1.0 - c)
    if (m1, m2, m3) == (2, 2, 2):
        if c > 1.0:
            return 0.0
        low_branch = 2.0 * (4.0 - 5.0 * c) / (2.0 - c)
        high_branch = 4.0 * (1.0 - c) / (2.0 - c)
        return low_branch if c <= 2.0 / 3.0 else high_branch
    raise ValueError(
        f"no closed form for {topology.antennas}; "
        "covered families: (M1, 1, M3), (1, M, 1), (2, 2, 2)"
    )


# ---------------------------------------------------------------------------
# chains with more than three nodes


def nnode_vbl_dmdt(
    topology: Topology,
    total_rounds: int,
    r: float,
    channel: ChannelAssumption = ChannelAssumption.LONG_TERM_STATIC,
) -> float:
    """Dynamic-sharing diversity of a chain: weakest three-node window wins.

    Half-duplex relays couple only adjacent hops, so the chain decomposes
    into its contiguous three-node sub-chains, each evaluated with the full
    round budget.
    """
    if topology.n_nodes < 3:
        raise ValueError("need at least three nodes; use dmt for a single hop")
    return _vbl_weakest(topology.sub_topologies(), total_rounds, r, channel, {})


def nnode_fbl_bounds(
    topology: Topology,
    total_rounds: int,
    r: float,
    channel: ChannelAssumption = ChannelAssumption.LONG_TERM_STATIC,
) -> tuple[float, float]:
    """Bracket for the shared-budget protocol on a chain.

    The protocol wastes at most one round per node on split overhead, so its
    diversity sits between the dynamic-sharing value at a budget shrunk by
    the node count and the dynamic-sharing value at the full budget.  The
    bracket tightens as the budget grows.
    """
    if topology.n_nodes < 3:
        raise ValueError("bounds are defined for chains of at least three nodes")
    n = topology.n_nodes
    if total_rounds <= n:
        raise ValueError(
            f"need more rounds than nodes: total_rounds={total_rounds}, nodes={n}"
        )
    r = _check_rate_scalar(r)
    subs, tables = topology.sub_topologies(), {}
    lower = _vbl_weakest(subs, total_rounds - n, r, channel, tables)
    upper = _vbl_weakest(subs, total_rounds, r, channel, tables)
    return lower, upper
