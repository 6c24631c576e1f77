"""Independent oracles for the single-hop tradeoff and the window search,
used only by the tests.

The eigenvalue-exponent algebra (per-mode SNR exponents, their outage cost
and the multiplexing gain they support) gives a route to the diversity
curve that does not go through mharq.tradeoff.dmt, and the decoding-time
rules give the round counts that accumulated mutual information needs.
The finite-SNR multiplexing gain normalises a rate by log2(1 + m_rx * snr).
The cube-walk window search scans every tuple of the budget^n_hops cube and
keeps those that fit the budget, one candidate at a time; optimize_windows
must give its table.  The combination gaps are the window search's
compositions as itertools.combinations makes them, the order
_composition_matrix must keep.  The plain sum folds a float list left to
right from 0 + its first value, one value at a time: the cube walk sums its
means and union bounds with it, and _row_sums and the whole-block means must
give its bits on every Python.  The block tails are a hop's P(S > j), one
scalar gamma tail per block length, computed on every call; the window
search's process-wide tail cache must give their bits.  The
compensated sum adds a float list as builtin sum() does from Python 3.12
on, and compensated_builtin_sum puts it in place of sum() on any Python:
the window search must keep its bits with that stand-in swapped in.
The eigenvalue capacity sums log2(1 + snr * lambda / m_tx) over every
eigenvalue of the receive-side Gram matrix, the route the simulator's
log-det identity must agree with.  The cumulative-sum decode takes every
short-term round's capacity for every message, the route the simulator's
lazy decode must agree with.  The whole-array tandem runs every queueing
stage's Lindley reflection over all messages at once, the route the
simulator's chunked tandem must agree with bit for bit.
The np.interp curve is the single-hop curve as mharq.tradeoff.dmt first
shipped it; dmt's curve must give its bits.  The float corners and the
corner curve evaluate it as the high-SNR kernels first did, on a tuple of
float corners.  The fixed-window optimum and the shared-budget split
evaluate the np.interp curve once per window pair, as first shipped; the
kernels of mharq.asymptotic must give the same bits.  The enumerated fixed
windows read every window at every rate at once; the fixed optimum's
windows and value must give their bits.  The
exact split check reads the signs of the equalizing equations off
integers, half-way to each neighbour of a double: the equalized split and
its value must be the nearest doubles.  The per-tau short-term split costs each hop afresh at every
split point, with a new candidate set each time, as first shipped; the
table-driven short-term kernels of mharq.asymptotic must give its bits.
The fixed-window chain bounds bracket a chain's fixed-window
diversity between its three-node windows and dynamic sharing of the whole
budget.
The stdlib table writer formats every cell of every row and hands the rows
to csv.writer or to json.dumps(indent=2, sort_keys=True), as the command
line first wrote its output; the column-wise writer must give its bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from builtins import sum as _builtin_sum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from itertools import product as _cartesian
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from mharq import __version__
from mharq.asymptotic import (
    FixedWindowOptimum,
    _kink_fractions,
    _require_3node,
    fixed_dmdt_3node,
    vbl_dmdt_3node,
)
from mharq.cli import _config_hash
from mharq.finite_snr import (
    STABILITY_MARGIN,
    CandidateRow,
    ErrorBreakdown,
    FiniteSnrScenario,
    WindowInfeasibleError,
    _gamma_tail,
)
from mharq.tradeoff import (
    AntennaPair,
    ChannelAssumption,
    FixedArq,
    Topology,
    _check_rate_scalar,
)


#: Sentinel for "decoding never completes" (total accumulated rate short of r).
NEVER = math.inf


def corners(pair: AntennaPair) -> list[int]:
    """The corner diversities (m_tx - k)(m_rx - k) at the knots k = 0..min_dim."""
    return [(pair.m_tx - k) * (pair.m_rx - k) for k in range(pair.min_dim + 1)]


def float_corners(pair: AntennaPair) -> tuple[float, ...]:
    """The corners as a tuple of Python floats."""
    return tuple(map(float, corners(pair)))


def corner_curve(c: tuple[float, ...], s: float) -> float:
    """The curve on float corners c: lo + (s - j) * (hi - lo) between knots j
    and j + 1, the end corner outside [0, len(c) - 1].
    """
    top = len(c) - 1
    if s >= top:
        return 0.0
    if s <= 0.0:
        return c[0]
    j = int(s)
    lo, hi = c[j], c[j + 1]
    return lo + (s - j) * (hi - lo)


def interp_dmt(pair: AntennaPair, r: float) -> float:
    """The single-hop curve through np.interp on the integer knots 0..min_dim."""
    k = np.arange(pair.min_dim + 1, dtype=float)
    corners = (pair.m_tx - k) * (pair.m_rx - k)
    return float(np.interp(_check_rate_scalar(r), k, corners))


@dataclass(frozen=True)
class ExponentVector:
    """Per-eigenmode SNR exponents of one hop in one round.

    Eigenvalue j of the channel Gram matrix scales as SNR^(-alpha_j); the
    ordered flag asserts the conventional nonincreasing arrangement.
    """

    alpha: tuple[float, ...]
    ordered: bool = True

    def __init__(self, alpha: Sequence[float], ordered: bool = True) -> None:
        alpha = tuple(float(a) for a in alpha)
        if not alpha:
            raise ValueError("exponent vector must be nonempty")
        if any(math.isnan(a) or a < 0.0 for a in alpha):
            raise ValueError(f"exponents must be nonnegative, got {alpha}")
        if ordered and any(a < b for a, b in zip(alpha, alpha[1:])):
            raise ValueError(f"exponents not nonincreasing: {alpha}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "ordered", bool(ordered))

    def __len__(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class ExponentSchedule:
    """One ExponentVector per ARQ round for a single hop."""

    per_round: tuple[ExponentVector, ...]

    def __init__(self, per_round: Sequence[ExponentVector]) -> None:
        per_round = tuple(per_round)
        if not per_round:
            raise ValueError("schedule must cover at least one round")
        width = len(per_round[0])
        for l, vec in enumerate(per_round):
            if not isinstance(vec, ExponentVector):
                raise TypeError(f"round {l} entry is not an ExponentVector")
            if not vec.ordered:
                raise ValueError(f"round {l} exponent vector must be ordered")
            if len(vec) != width:
                raise ValueError(
                    f"round {l} has {len(vec)} exponents, expected {width}"
                )
        object.__setattr__(self, "per_round", per_round)

    @property
    def rounds(self) -> int:
        return len(self.per_round)


def exponent_cost(pair: AntennaPair, alpha: ExponentVector | Sequence[float]) -> float:
    """Outage-probability SNR exponent of one eigenvalue-exponent realization.

    Sum over modes of (2j - 1 + |m_tx - m_rx|) * alpha_j, ordered weakest
    weight first.  Minimizing this over ordered vectors whose capacity
    exponent falls below r reproduces the dmt curve, which the tests use as
    an independent route to the same values.
    """
    values = alpha.alpha if isinstance(alpha, ExponentVector) else tuple(alpha)
    if len(values) != pair.min_dim:
        raise ValueError(
            f"expected {pair.min_dim} exponents for {pair}, got {len(values)}"
        )
    gap = abs(pair.m_tx - pair.m_rx)
    return float(sum((2 * j + 1 + gap) * a for j, a in enumerate(values)))


def capacity_exponent(
    alpha: ExponentVector | Sequence[float], power_exponent: float = 1.0
) -> float:
    """Multiplexing-gain exponent a hop supports under the given eigenmode decay.

    Sum over modes of (g - alpha_j)^+ where g is the per-round power
    exponent; modes with alpha_j >= g contribute nothing, matching the
    intuition that they are effectively switched off.
    """
    values = alpha.alpha if isinstance(alpha, ExponentVector) else tuple(alpha)
    if any(a < 0.0 for a in values):
        raise ValueError(f"exponents must be nonnegative, got {values}")
    return float(sum(max(power_exponent - a, 0.0) for a in values))


def decoding_time_blockwise(S_per_round: Sequence[float], r: float):
    """Smallest whole number of rounds whose summed rate exponents reach r.

    Returns NEVER when even the full sequence falls short.  The infimum is
    over positive round counts, so r = 0 still costs one round: feedback
    arrives only at round boundaries.
    """
    r = _check_rate_scalar(r)
    total = 0.0
    count = 0
    for s in S_per_round:
        if s < 0.0:
            raise ValueError(f"rate exponents must be nonnegative, got {s}")
        total += s
        count += 1
        if total >= r:
            return count
    return NEVER


def decoding_time_continuous(S_per_round: Sequence[float], r: float):
    """Decoding time when the receiver can stop mid-round.

    The final round is used fractionally, so r = 0 needs no air time at all.
    Uses the standard floor convention for the boundary of the last round;
    the distinction from a strict-floor reading only matters on exact
    integers, a measure-zero set.
    """
    r = _check_rate_scalar(r)
    if r == 0.0:
        return 0.0
    acc = 0.0
    for idx, s in enumerate(S_per_round):
        if s < 0.0:
            raise ValueError(f"rate exponents must be nonnegative, got {s}")
        if s > 0.0 and acc + s >= r:
            return idx + (r - acc) / s
        acc += s
    return NEVER


def finite_multiplexing(rate_bits_per_use: float, m_rx: int, snr: float) -> float:
    """Finite-SNR multiplexing gain: rate normalized by log2(1 + m_rx * snr)."""
    if rate_bits_per_use < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate_bits_per_use}")
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr}")
    if m_rx < 1:
        raise ValueError(f"m_rx must be >= 1, got {m_rx}")
    return rate_bits_per_use / math.log2(1.0 + m_rx * snr)


@dataclass(frozen=True)
class CubeWalkOptimum:
    """The cube walk's winner and its table of rows, built one at a time."""

    allocation: FixedArq
    breakdown: ErrorBreakdown
    table: tuple[CandidateRow, ...]


class CubeWalkInfeasibleError(WindowInfeasibleError):
    """WindowInfeasibleError carrying the cube walk's own rows."""

    def __init__(self, message: str, table: tuple[CandidateRow, ...]):
        super().__init__(message, None)
        self.rows = table

    @property
    def table(self) -> tuple[CandidateRow, ...]:
        return self.rows


def block_tails(
    pair: AntennaPair, longest: int, scenario: FiniteSnrScenario
) -> list[float]:
    """P(S > j), j = 1..longest: the space-time-coded gamma tail at the
    scenario's spatial code rate, one block length at a time."""
    r_s = scenario.spatial_code_rate
    return [
        _gamma_tail(pair, scenario.snr, scenario.multiplexing_gain, r_s, float(j))
        for j in range(1, longest + 1)
    ]


def cube_walk_optimize_windows(
    topology: Topology,
    scenario: FiniteSnrScenario,
    *,
    budget: int | None = None,
) -> CubeWalkOptimum:
    """The window search as first shipped: a filtered budget^n_hops cube walk.

    Kept unchanged, apart from the infeasible message's cap of 20 listed
    candidates and plain_sum for its float sums (builtin sum() before Python
    3.12), so the tests can hold optimize_windows, which evaluates only the
    compositions of the budget, as arrays, to the same table row for row.
    It writes its own queue model (adjacent-pair stage sums, the stability
    test, the deadline tail and the error composition) rather than import
    mharq.finite_snr's, so the two share no code there.

    Enumerates every allocation with all windows >= 1 and total at most the
    budget (the deadline, rounded down, unless given explicitly), discards
    the ones violating the per-hop mean bound mu <= arrival mean or the
    stage stability margin, and returns the feasible argmin of the total
    error; ties break toward the lexicographically smallest windows.

    Allocations where the two constraint families disagree (per-hop bounds
    pass but a stage sum is unstable, or the reverse) are flagged, since the
    two express different readings of the stability requirement.
    """
    arrival, deadline = scenario.require_queueing()
    n_hops = topology.n_hops
    if budget is None:
        budget = int(math.floor(deadline))
    if budget < n_hops:
        raise CubeWalkInfeasibleError(
            f"budget {budget} cannot give each of {n_hops} hops a block", ()
        )

    # per-hop outage tails are shared across candidates; precompute them
    code_rate = scenario.spatial_code_rate
    hop_tail: list[list[float]] = []
    for i in range(n_hops):
        hop = topology.hop(i)
        hop_tail.append(
            [
                _gamma_tail(
                    hop, scenario.snr, scenario.multiplexing_gain, code_rate, float(j)
                )
                for j in range(1, budget + 1)
            ]
        )

    def mu_of(i: int, w: int) -> float:
        # whole-block mean, as in mean_service_time, from the shared tails
        return 1.0 + plain_sum(hop_tail[i][: w - 1])

    rows: list[CandidateRow] = []
    best: tuple[float, tuple[int, ...]] | None = None
    best_breakdown: ErrorBreakdown | None = None
    for windows in _cartesian(range(1, budget + 1), repeat=n_hops):
        if sum(windows) > budget:
            continue
        means = tuple(mu_of(i, w) for i, w in enumerate(windows))
        tails = [hop_tail[i][w - 1] for i, w in enumerate(windows)]
        p_outage = min(plain_sum(tails), 1.0)
        violations: list[str] = []
        for i, m in enumerate(means):
            if m > arrival:
                violations.append(
                    f"mu[{i}]={m:.6g} exceeds arrival mean {arrival:.6g}"
                )
        per_hop_ok = not violations
        # a half-duplex stage serves two adjacent hops; one hop is its own stage
        if n_hops == 1:
            stages = list(means)
        else:
            stages = [a + b for a, b in zip(means, means[1:])]
        thetas = [1.0 / stage - 1.0 / arrival for stage in stages]
        stage_violations: list[str] = []
        for i, (stage, theta) in enumerate(zip(stages, thetas)):
            if theta <= STABILITY_MARGIN:
                stage_violations.append(
                    f"stage {i} occupancy {stage:.6g} not stable against "
                    f"arrival mean {arrival:.6g}"
                )
        stable = not stage_violations
        violations.extend(stage_violations)
        feasible = per_hop_ok and stable
        conflict = per_hop_ok != stable
        if feasible:
            # the M/M/1-stage tail at the slowest decay rate, with the
            # prefactor rho = stage / arrival when there is one stage
            p_deadline = math.exp(-deadline * min(thetas))
            if len(stages) == 1:
                p_deadline = stages[0] / arrival * p_deadline
            p_total = p_outage + (1.0 - p_outage) * p_deadline
            breakdown = ErrorBreakdown(p_outage, p_deadline, p_total)
            if best is None or (p_total, windows) < best:
                best = (p_total, windows)
                best_breakdown = breakdown
        else:
            p_deadline = None
            p_total = None
        rows.append(
            CandidateRow(
                windows=windows,
                means=means,
                p_outage=p_outage,
                p_deadline=p_deadline,
                p_total=p_total,
                feasible=feasible,
                constraint_conflict=conflict,
                violations=tuple(violations),
            )
        )
    table = tuple(rows)
    if best is None or best_breakdown is None:
        detail = "; ".join(
            f"{row.windows}: {', '.join(row.violations)}" for row in table[:20]
        )
        if len(table) > 20:
            detail += f"; and {len(table) - 20} more"
        raise CubeWalkInfeasibleError(
            f"no feasible window allocation within budget {budget} "
            f"(per candidate: {detail})",
            table,
        )
    return CubeWalkOptimum(
        allocation=FixedArq(best[1]),
        breakdown=best_breakdown,
        table=table,
    )


def combination_gaps(n_hops: int, budget: int) -> np.ndarray:
    """The C(budget, n_hops) compositions: gaps of combinations of 1..budget."""
    cuts = np.fromiter(
        chain.from_iterable(combinations(range(1, budget + 1), n_hops)),
        dtype=np.intp,
        count=math.comb(budget, n_hops) * n_hops,
    ).reshape(-1, n_hops)
    return np.diff(cuts, axis=1, prepend=0)


def plain_sum(values: Sequence[float]) -> float:
    """0.0 + each value in turn, so -0.0 reads 0.0: builtin sum() before 3.12."""
    total = 0.0
    for x in values:
        total += x
    return total


def compensated_builtin_sum(iterable, start=0):
    """builtin sum() as Python 3.12 and later add a list of floats, on any Python.

    Lists of exact floats from a start of 0 go through compensated_sum;
    everything else through the running builtin sum().
    """
    items = list(iterable)
    if start == 0 and items and all(type(x) is float for x in items):
        return compensated_sum(items)
    return _builtin_sum(items, start)


def compensated_sum(values: Sequence[float]) -> float:
    """builtin sum() of a nonempty float list from 3.12 on, as CPython writes it.

    Neumaier's compensated sum (Z. angew. Math. Mech. 54, 1974): the
    compensation is added at the end only where it is nonzero and finite.
    """
    total, c = 0 + values[0], 0.0
    for x in values[1:]:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def dmt_fixed_optimal_windows(
    topology: Topology, total_rounds: int, r: float
) -> tuple[tuple[int, int], float]:
    """The fixed-window optimum's windows and value as first shipped.

    Kept so the tests can hold fixed_optimal_windows, which reads each
    hop's diversity once per window from its curve, to the same bits;
    the split is held to exact arithmetic (equalized_split_is_nearest).  It
    enumerates every split with window1 + window2 <= total_rounds, the
    curve read through np.interp per window pair, and maximizes the
    weakest-link diversity; ties prefer the more balanced split, then the
    smaller first window.
    """
    hop1, hop2 = _require_3node(topology)
    if total_rounds < 2:
        raise ValueError(f"need at least two rounds to serve two hops, got {total_rounds}")
    r = _check_rate_scalar(r)
    L = int(total_rounds)

    best: tuple[float, int, int] | None = None
    for w1 in range(1, L):
        for w2 in range(1, L - w1 + 1):
            v = min(interp_dmt(hop1, r / w1), interp_dmt(hop2, r / w2))
            key = (-v, abs(w1 - w2), w1)
            if best is None or key < best[0]:
                best = (key, w1, w2)
    assert best is not None
    _, w1, w2 = best
    return (w1, w2), min(interp_dmt(hop1, r / w1), interp_dmt(hop2, r / w2))


def _d_grid(curve: tuple[float, ...], s: np.ndarray) -> np.ndarray:
    """corner_curve at every entry of s, each ufunc rounding as a float op does."""
    top = len(curve) - 1
    c = np.array(curve)
    j = np.clip(np.floor(s), 0, top - 1)
    k = j.astype(np.intp)
    d = c[k] + (s - j) * (c[k + 1] - c[k])
    return np.where(s >= top, 0.0, np.where(s <= 0.0, c[0], d))


def enumerated_fixed_windows(
    topology: Topology, total_rounds: int, rates: Sequence[float]
) -> list[tuple[tuple[int, int], float]]:
    """The fixed-window optimum's windows and value at each rate, every window read.

    Both hops' diversities are read at r/w for every rate and every window
    1..L-1 at once.  The best value is the largest min(d1(a), d2(L - a));
    a0 and b0 are the first windows to reach it, and the tie-break is the
    one pass over dmt_fixed_optimal_windows's enumeration: equal windows
    max(a0, b0) if both fit, else one side at its floor.
    """
    hop1, hop2 = _require_3node(topology)
    L = int(total_rounds)
    shares = np.array(rates, dtype=float)[:, None] / np.arange(1.0, L)
    d1, d2 = (_d_grid(float_corners(hop), shares) for hop in (hop1, hop2))
    values = np.minimum(d1, d2[:, ::-1]).max(axis=1)
    a0s = np.argmax(d1 >= values[:, None], axis=1) + 1
    b0s = np.argmax(d2 >= values[:, None], axis=1) + 1
    out = []
    for value, a0, b0 in zip(values.tolist(), a0s.tolist(), b0s.tolist()):
        c = max(a0, b0)
        w = (c, c) if 2 * c <= L else (a0, L - a0) if a0 > b0 else (L - b0, b0)
        out.append((w, value))
    return out


def _inverse(c: list[int], p: int, q: int) -> tuple[int, int]:
    """The largest s with d(s) >= p/q, as (num, den), for 0 < p/q < c[0].

    The inverse interpolation on the piece c[k] >= p/q > c[k + 1]:
    s = k + (c[k] - p/q) / (c[k] - c[k + 1]).
    """
    k = max(k for k in range(len(c) - 1) if c[k] * q >= p)
    step = c[k] - c[k + 1]
    return (k * step + c[k]) * q - p, step * q


def _curve_at(c: list[int], a: int, b: int) -> tuple[int, int]:
    """d(a/b) as (num, den), for a >= 0 and b > 0."""
    if a >= (len(c) - 1) * b:
        return 0, 1
    k = a // b
    return c[k] * b + (a - k * b) * (c[k + 1] - c[k]), b


def _halfway(x: float) -> list[tuple[int, int]]:
    """The points half-way from x to the doubles below and above it, as (num, den)."""
    a, b = x.as_integer_ratio()
    out = []
    for toward in (-math.inf, math.inf):
        c, d = math.nextafter(x, toward).as_integer_ratio()
        out.append((a * d + c * b, 2 * b * d))
    return out


def equalized_split_is_nearest(
    topology: Topology, total_rounds: int, r: float, opt: FixedWindowOptimum
) -> bool:
    """True if opt's equalized split and its value are the doubles nearest the exact ones.

    In exact arithmetic the equalized value v* is the largest v with
    X1(v) + X2(v) <= L, where Xi(v) = r / si(v) is the least share of the L
    rounds at which hop i reaches v (si from _inverse), and the split x*
    solves d1(r/x) = d2(r/(L - x)).  A double is the nearest to any of v*,
    x* and hop 2's share L - x* iff the exact function changes sign between
    the points half-way to its neighbours; every sign is read off integers,
    with r = M / N.  On the zero plateau, r/m1 + r/m2 >= L, v* is 0 and x*
    is the plateau's right end, r/m1, kept below L (1 - 1e-12); at r = 0 the
    split is L/2 each at full diversity.
    """
    c1, c2 = map(corners, _require_3node(topology))
    L = int(total_rounds)
    (x, y), v = opt.split, opt.split_value
    if r == 0.0:
        return x == y == L / 2 and v == min(c1[0], c2[0])
    m1, m2 = len(c1) - 1, len(c2) - 1
    M, N = r.as_integer_ratio() if r < math.inf else (1, 0)
    if M * (m1 + m2) >= L * N * m1 * m2:  # r/m1 + r/m2 >= L
        x_star = min(r / m1, L * (1.0 - 1e-12))
        exact_y = Fraction(L) - Fraction(M, N * m1) if x_star == r / m1 else L - x_star
        return v == 0.0 and x == x_star and y == float(exact_y)

    def excess(p: int, q: int) -> int:
        """An integer of the sign of X1(p/q) + X2(p/q) - L."""
        if p <= 0:
            return -1  # a diversity of 0 or less needs no rounds
        if p >= min(c1[0], c2[0]) * q:
            return 1  # no share reaches the top corner
        (a1, b1), (a2, b2) = _inverse(c1, p, q), _inverse(c2, p, q)
        return M * (b1 * a2 + b2 * a1) - L * N * a1 * a2

    def gap(p: int, q: int) -> int:
        """An integer of the sign of d1(r/x) - d2(r/(L - x)) at x = p/q."""
        # a hop given no rounds has no diversity
        a1, b1 = _curve_at(c1, M * q, N * p) if p > 0 else (0, 1)
        a2, b2 = _curve_at(c2, M * q, N * (L * q - p)) if p < L * q else (0, 1)
        return a1 * b2 - a2 * b1

    (v_lo, v_hi), (x_lo, x_hi) = _halfway(v), _halfway(x)
    # hop 2's share p/q is hop 1's L - p/q, and gap rises with hop 1's share:
    # where x's half-way points lie inside y's, x's signs already hold for y
    (x_ylo, y_lo), (x_yhi, y_hi) = ((L * q - p, q) for p, q in reversed(_halfway(y)))
    inside = x_ylo * x_lo[1] <= x_lo[0] * y_lo and x_hi[0] * y_hi <= x_yhi * x_hi[1]
    return (
        excess(*v_lo) <= 0 <= excess(*v_hi)
        and gap(*x_lo) <= 0 <= gap(*x_hi)
        and (inside or gap(x_ylo, y_lo) <= 0 <= gap(x_yhi, y_hi))
    )


def dmt_fbl_dmdt_3node(
    topology: Topology,
    total_rounds: int,
    r: float,
    channel: ChannelAssumption = ChannelAssumption.LONG_TERM_STATIC,
    *,
    allow_zero_rounds: bool = False,
) -> float:
    """The shared-budget split as first shipped: the curve per hop and split.

    Kept unchanged so the tests can hold fbl_dmdt_3node, which evaluates
    the same terms on the cached curve, to the same bits.

    One round of the budget is spent on the decision overhead, and the rest
    is split as l1 + l2 = total_rounds - 1.  Long-term static channels add
    the two per-hop diversities; short-term static channels weight each by
    its round count.  allow_zero_rounds admits splits that starve one hop,
    whose term is then zero.
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
    best = math.inf
    for l1 in range(low, data_rounds - low + 1):
        l2 = data_rounds - l1
        terms = []
        for hop, l in ((hop1, l1), (hop2, l2)):
            if l == 0:
                terms.append(0.0)
            elif short_term:
                terms.append(l * interp_dmt(hop, r / l))
            else:
                terms.append(interp_dmt(hop, r / l))
        best = min(best, sum(terms))
    return best


def partial_round_cost(pair: AntennaPair, r: float, tau: float) -> float:
    """Exponent of one hop failing to decode within tau rounds (fresh fades).

    tau = m + f with m whole rounds and a final fraction f; the rate budget
    splits as m*s + f*y >= r with per-round costs d(s) and d(y).  Even
    spreading over the whole rounds is optimal (the curve is convex), and
    the remaining one-dimensional minimum over y sits at a knot of either
    piecewise-linear term, so only knots and endpoints are evaluated.
    """
    if tau <= 0.0:
        return 0.0
    curve, min_dim = float_corners(pair), pair.min_dim
    frac = tau - math.floor(tau)
    f = 1.0 if frac == 0.0 else frac
    m = math.ceil(tau) - 1
    ycap = min(float(min_dim), r / f) if r > 0.0 else 0.0
    if m == 0:
        return corner_curve(curve, ycap)
    cands = {0.0, ycap}
    for k in range(0, min_dim + 1):
        if 0.0 < k < ycap:
            cands.add(float(k))
        y = (r - m * k) / f
        if 0.0 < y < ycap:
            cands.add(y)
    return min(
        m * corner_curve(curve, (r - f * y) / m) + corner_curve(curve, y) for y in cands
    )


def per_tau_vbl_short_term(
    hop1: AntennaPair, hop2: AntennaPair, total_rounds: int, r: float
) -> float:
    """The short-term split as first shipped: both hops costed per split point.

    Kept unchanged so the tests can hold the short-term kernels, which read
    each curve's costs from one table per call, to the same bits.

    Between consecutive candidates (the whole-round splits and each hop's
    kinks, m + f on hop 1's side and L - m - f on hop 2's) both hop costs
    are concave in tau, so their sum is too and its minimum over the budget
    sits on a candidate.
    """
    L = int(total_rounds)
    m1, m2 = hop1.min_dim, hop2.min_dim
    taus = {float(t) for t in range(L + 1)}
    for m in range(L):
        taus.update(m + f for f in _kink_fractions(m1, r, m))
        taus.update(L - m - f for f in _kink_fractions(m2, r, m))
    return min(
        partial_round_cost(hop1, r, tau) + partial_round_cost(hop2, r, L - tau)
        for tau in taus
    )


def nnode_fixed_bounds(
    topology: Topology, windows: Sequence[int], budget: int, r: float
) -> tuple[float, float]:
    """Bounds on a chain's diversity under fixed per-hop windows.

    Lower bound: each three-node window runs its own fixed-window chain at
    the rate scaled by (heaviest adjacent window pair) / budget -- the
    pipelining argument admits a new message once per window pair, not
    once per budget.  Upper bound: no fixed allocation can beat dynamic
    sharing of the full budget on any sub-chain.
    """
    if topology.n_nodes < 3:
        raise ValueError("bounds are defined for chains of at least three nodes")
    if len(windows) != topology.n_hops:
        raise ValueError(f"{len(windows)} windows for {topology.n_hops} hops")
    r = _check_rate_scalar(r)
    subs = topology.sub_topologies()
    heaviest_pair = max(windows[i] + windows[i + 1] for i in range(len(subs)))
    scaled_r = r * heaviest_pair / budget
    lower = min(
        fixed_dmdt_3node(sub, windows[i], windows[i + 1], scaled_r)
        for i, sub in enumerate(subs)
    )
    upper = min(vbl_dmdt_3node(sub, budget, r) for sub in subs)
    return lower, upper


def eigvalsh_capacities(
    u: np.ndarray, snr: float, r_s: float, m_tx: int, code_model: str
) -> np.ndarray:
    """Per-round capacities from raw uniforms, one eigendecomposition each.

    The uniforms are those of mharq.netsim._capacities: u has shape
    (msg, round, rx, tx, [mag, phase]) and entries are unit complex
    Gaussians via the polar transform.  The code model is named here, not
    read from the package's rule: ostbc is r_s * log2(1 + snr ||H||^2 / m_tx),
    and log-det takes batched ``eigvalsh`` of the full m_rx x m_rx Gram
    matrix, whatever its rank.
    """
    mags_sq = -np.log1p(-u[..., 0])  # (msg, round, rx, tx)
    if code_model == "ostbc":
        frob = mags_sq.sum(axis=(2, 3))
        return r_s * np.log2(1.0 + snr * frob / m_tx)
    phases = 2.0 * np.pi * u[..., 1]
    h = np.sqrt(mags_sq) * np.exp(1j * phases)
    gram = h @ np.conj(np.swapaxes(h, -1, -2))  # (msg, round, rx, rx)
    eig = np.linalg.eigvalsh(gram)
    return np.log2(1.0 + snr * np.maximum(eig, 0.0) / m_tx).sum(axis=-1)


def summed_rate_capacities(
    u: np.ndarray, snr: float, m_tx: int, rate: float, per_snr: bool = False
) -> np.ndarray:
    """mharq.netsim._capacities of a hop with a code rate, each ||H||^2 summed
    by numpy over the row of its entries, as the simulator first did.

    Kept unchanged so the tests can hold the simulator, which folds short
    rows over their entry columns, to the same bits.
    """
    frob = -np.log1p(-u[..., 0]).sum(axis=(2, 3))
    if per_snr:
        z = snr * frob / m_tx
        ratio = np.divide(np.log1p(z), z, out=np.ones_like(z), where=z > 0.0)
        return rate * (frob / m_tx) * ratio
    with np.errstate(over="ignore"):
        cap = np.log2(1.0 + snr * frob / m_tx)
    over = np.isinf(cap)
    if over.any():
        cap[over] = np.log2(frob[over]) + (math.log2(snr) - math.log2(m_tx))
    return rate * cap


def cumsum_decode_rounds(
    capacities: np.ndarray, target_rate: float, window: int
) -> np.ndarray:
    """Short-term blocks per message from every round's capacity at once.

    capacities has shape (msg, round); the result counts the rounds until
    the accumulated rate reaches target_rate, window + 1 marking outage.
    """
    accum = np.cumsum(capacities, axis=1)
    done = accum >= target_rate
    first = np.argmax(done, axis=1)  # 0 when never true; mask below
    return np.where(done.any(axis=1), first + 1, window + 1)


def _lindley_waits(services: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
    """Waiting times of a FIFO queue, by cumulative-sum reflection.

    The recursion W_n = max(0, W_{n-1} + T_{n-1} - dA_n) telescopes to
    W_n = C_n - min_{j<=n} C_j with C the cumulative sum of the drift terms,
    which vectorizes.
    """
    drift = np.empty_like(services)
    drift[0] = 0.0
    drift[1:] = services[:-1] - np.diff(arrivals)
    cum = np.cumsum(drift)
    return cum - np.minimum.accumulate(cum)


def whole_array_tandem(
    arrival_rng: np.random.Generator,
    arrival_mean: float,
    n_msgs: int,
    n_stages: int,
    fill: Callable[[int, int, np.ndarray], None],
) -> Iterator[tuple[int, np.ndarray]]:
    """Total delay through the FIFO tandem, every stage over whole arrays.

    Same contract as mharq.netsim._tandem_delays, as one chunk of every
    message; the services of every stage are asked for once, for messages
    0:n_msgs.
    """
    arrivals = np.cumsum(-arrival_mean * np.log1p(-arrival_rng.random(n_msgs)))
    stage_services = np.empty((n_stages, n_msgs))
    fill(0, n_msgs, stage_services)

    # tandem of FIFO stages; each stage's departures arrive at the next
    stage_arrivals = arrivals
    total_delay = np.zeros(n_msgs)
    for services in stage_services:
        waits = _lindley_waits(services, stage_arrivals)
        sojourn = waits + services
        total_delay += sojourn
        stage_arrivals = stage_arrivals + sojourn
    yield 0, total_delay


def _format_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.9g}"
    return str(value)


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, tuple):
        return [_json_safe(v) for v in value]
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def stdlib_emit(
    stream: io.TextIOBase,
    fmt: str,
    command: str,
    config: dict,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    meta_extra: dict[str, Any] | None = None,
    seed: int | None = None,
) -> None:
    """The command line's table writer as first shipped, one row at a time.

    Same contract as mharq.cli._emit, except that it takes the table row by
    row rather than column by column.
    """
    digest = _config_hash(config)
    if fmt == "csv":
        header = f"# tool=mharq version={__version__} command={command} config_hash={digest}"
        if seed is not None:
            header += f" seed={seed}"
        stream.write(header + "\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
        return
    meta: dict[str, Any] = {
        "tool": "mharq",
        "version": __version__,
        "command": command,
        "config": config,
        "config_hash": digest,
    }
    if seed is not None:
        meta["seed"] = seed
    if meta_extra:
        meta.update(meta_extra)
    payload = {
        "meta": _json_safe(meta),
        "columns": list(columns),
        "rows": [
            {col: _json_safe(v) for col, v in zip(columns, row)} for row in rows
        ],
    }
    stream.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    stream.write("\n")
