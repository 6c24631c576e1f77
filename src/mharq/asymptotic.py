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
precomputed pieces (the short-term hop tables), so the module runs on plain
float arithmetic and needs no numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

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
    O(log total_rounds) reads of the curves.  The real part equalizes the
    two per-hop curves, d1(r/x) = d2(r/(total - x)), to the float the
    bisection of [1e-12 total, total (1 - 1e-12)] down to two adjacent
    floats returns (_equalized_split).
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

    if r == 0.0:
        # both curves are flat at full diversity; call the midpoint the split
        x = L / 2.0
        split_value = min(curve1[0], curve2[0])
    else:
        x = _equalized_split(curve1, curve2, L, r)
        split_value = min(_d_scalar(curve1, r / x), _d_scalar(curve2, r / (L - x)))
    return FixedWindowOptimum(
        windows=(w1, w2), value=value, split=(x, L - x), split_value=split_value
    )


# A rounding blur of the equalizing root up to this many ulps is walked from
# the root in doubling steps; a wider one is cut at twice its width.
_WALK_ULPS = 2.0**12


def _piece(curve: tuple[float, ...], s: float) -> tuple[float, float]:
    """(A, B) with the curve A + B t on the piece of _d_scalar that holds s."""
    if s >= len(curve) - 1:
        return 0.0, 0.0
    j = int(s)
    slope = curve[j + 1] - curve[j]
    return curve[j] - j * slope, slope


def _equalized_split(
    curve1: tuple[float, ...], curve2: tuple[float, ...], L: int, r: float
) -> float:
    """The split x of L rounds where d1(r/x) meets d2(r/(L - x)), for r > 0.

    gap(x) = d1(r/x) - d2(r/(L - x)) is nondecreasing over the floats, since
    correctly rounded division, _d_scalar and subtraction each are.  So in
    [1e-12 L, L (1 - 1e-12)], whose ends count as gap <= 0 and gap > 0 and
    are never read, one pair of adjacent floats a < b has gap(a) <= 0 <
    gap(b), and x = (a + b) / 2 is what any bisection of a bracket that
    holds the pair returns.  Bisecting the whole interval reads gap 52 to 93
    times; this search narrows the bracket first, in about 6 reads:

    1. a binary search over the knots, x = r/k on hop 1's side and
       L - r/k on hop 2's, finds the segment that holds the pair;
    2. on it each curve is affine in its argument, so gap is about
       c - p/x + q/(L - x) with p, q >= 0, and its one root x0 in [0, L] is
       a root of a quadratic; the rounding of gap blurs the crossing by
       about blur = noise / gap'(x0);
    3. if gap is one float across the segment, the pair sits at an end, and
       the search walks in from that end in doubling ulp steps; if the blur
       is under _WALK_ULPS ulps, it walks out from x0 the same way; a wider
       blur is cut at x0 +- 2 blur, unless that spans an eighth of the
       segment.

    Every read moves an end of the bracket, and a bisection of the bracket
    left over finishes, so a poor guess costs reads, never bits.
    """

    def gap(x: float) -> float:
        return _d_scalar(curve1, r / x) - _d_scalar(curve2, r / (L - x))

    a, b = 1e-12 * L, L * (1.0 - 1e-12)

    def cut(x: float) -> bool:
        """Read gap at x in (a, b) and move the end of the bracket it passes."""
        nonlocal a, b
        if gap(x) <= 0.0:
            a = x
            return True
        b = x
        return False

    knots = {r / k for k in range(1, len(curve1))}
    knots.update(L - r / k for k in range(1, len(curve2)))
    inside = sorted(x for x in knots if a < x < b)
    lo, hi = 0, len(inside)
    while lo < hi:
        i = (lo + hi) // 2
        if cut(inside[i]):
            lo = i + 1
        else:
            hi = i

    mid = 0.5 * (a + b)
    s1, s2 = r / mid, r / (L - mid)
    A1, B1 = _piece(curve1, s1)
    A2, B2 = _piece(curve2, s2)
    c = A1 - A2
    p = -B1 * r if B1 else 0.0  # a flat piece at r = inf would give 0 * inf
    q = -B2 * r if B2 else 0.0
    # c x^2 - (c L + p + q) x + p L is p L >= 0 at 0 and -q L <= 0 at L
    bq = c * L + p + q
    sq = math.sqrt(max(bq * bq - 4.0 * c * p * L, 0.0))
    if bq > 0.0:
        x0 = 2.0 * p * L / (bq + sq)
    elif c < 0.0:
        x0 = (bq - sq) / (2.0 * c)
    else:  # c = p = q = 0: both curves are zero on the segment
        x0 = b
    x0 = min(max(x0, a), b)
    slope = p / (x0 * x0) + q / ((L - x0) * (L - x0))
    # each curve read rounds by about an ulp of A1 or A2, which bound it
    blur = 2.0**-51 * (A1 + A2) / slope if slope > 0.0 else math.inf
    spread = (-B1 * (r / a - r / b) if B1 else 0.0) + (
        -B2 * (r / (L - b) - r / (L - a)) if B2 else 0.0
    )

    steps = 0
    if spread <= 2.0**-55 * (A1 + A2):  # under a quarter ulp: gap is one float
        x0, steps = (a if c - p / mid + q / (L - mid) > 0.0 else b), 4
    elif blur <= _WALK_ULPS * math.ulp(x0):
        steps = 14  # 2**14 - 1 ulps reach past the blur from x0
        if a < x0 < b:
            cut(x0)
    elif 32.0 * blur < b - a:
        for x in (x0 - 2.0 * blur, x0 + 2.0 * blur):
            if a < x < b:
                cut(x)
    up = x0 == a  # else x0 == b, or no walk
    step = math.ulp(x0)
    for _ in range(steps):
        x = a + step if up else b - step
        if not a < x < b or cut(x) != up:
            break
        step *= 2.0

    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid  # a and b are adjacent floats
        cut(mid)


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
