"""High-SNR tradeoff curves: frozen oracle values and structural properties.

The frozen numbers were produced by independent brute-force searches over
eigenmode exponents (four-dimensional grids plus candidate-point algebra),
not by the implementation under test.
"""

import itertools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mharq.asymptotic as asymptotic
import mharq.tradeoff as tradeoff
from mharq.asymptotic import (
    _kink_fractions,
    _partial_round_costs,
    fbl_dmdt_3node,
    fixed_dmdt_3node,
    fixed_optimal_windows,
    nnode_fbl_bounds,
    nnode_vbl_dmdt,
    vbl_closed_form,
    vbl_dmdt_3node,
)
from mharq.tradeoff import AntennaPair, ChannelAssumption, Topology, _curve, dmt
from oracles import (
    corner_curve,
    corners,
    dmt_fbl_dmdt_3node,
    dmt_fixed_optimal_windows,
    enumerated_fixed_windows,
    equalized_split_is_nearest,
    float_corners,
    interp_dmt,
    nnode_fixed_bounds,
    partial_round_cost,
    per_tau_vbl_short_term,
)

LT = ChannelAssumption.LONG_TERM_STATIC
ST = ChannelAssumption.SHORT_TERM_STATIC

T413 = Topology([4, 1, 3])
T222 = Topology([2, 2, 2])
T141 = Topology([1, 4, 1])


# ---------------------------------------------------------------------------
# dynamic sharing (VBL)


@pytest.mark.parametrize(
    "topology, L, r, expected",
    [
        (T413, 4, 1.0, 2.0),
        (T413, 10, 1.0, 8.0 / 3.0),
        (T413, 7, 1.0, 2.5),
        (T413, 4, 0.5, 18.0 / 7.0),
        (T222, 4, 1.0, 22.0 / 7.0),
        (T222, 4, 2.5, 14.0 / 11.0),
    ],
)
def test_vbl_long_term_frozen_values(topology, L, r, expected):
    assert vbl_dmdt_3node(topology, L, r) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("topology", [T413, T141, T222, Topology([3, 1, 2])])
@pytest.mark.parametrize("L", [2, 5])
def test_vbl_matches_closed_form_families(topology, L):
    r_max = min(dmt(topology.hop(i), 0.0) for i in range(topology.n_hops))  # past here both are 0
    for r in np.linspace(0.0, L, 21):
        want = vbl_closed_form(topology, L, float(r))
        got = vbl_dmdt_3node(topology, L, float(r))
        assert got == pytest.approx(want, abs=1e-6), f"r={r}"


def test_vbl_closed_form_published_middle_branch():
    # On c in (1/2, 2/3) the published (2, 2, 2) form has a third branch,
    # (3 - 4c)/(1 - c), the cost of the boundary knot at s1 = 1.  It meets
    # the two true branches at the ends of that band and sits strictly
    # above the optimum the search finds inside it.
    def published(c):
        return (3.0 - 4.0 * c) / (1.0 - c)

    assert published(0.5) == pytest.approx(vbl_closed_form(T222, 4, 2.0))
    assert published(2.0 / 3.0) == pytest.approx(vbl_closed_form(T222, 4, 8.0 / 3.0))
    assert published(2.5 / 4.0) == pytest.approx(4.0 / 3.0)
    assert vbl_closed_form(T222, 4, 2.5) == pytest.approx(14.0 / 11.0)
    for r in np.linspace(2.0, 8.0 / 3.0, 17)[1:-1]:
        c = float(r) / 4.0
        assert published(c) > vbl_closed_form(T222, 4, float(r)) + 1e-6
        assert published(c) > vbl_dmdt_3node(T222, 4, float(r)) + 1e-6


def test_vbl_long_term_tiny_rate_takes_the_limit():
    # below c = r/L of about 1e-16 * m2 the boundary endpoint c*m2/(m2 - c)
    # rounds to c itself and hop 2's rate exponent divided by zero; a bit
    # above, it lost most of its digits and d2 came out positive
    for r in (5e-324, 1e-300, 1e-16, 8.3e-13, 1e-9):
        assert vbl_dmdt_3node(T222, 4, r) == pytest.approx(4.0, abs=1e-8)
        assert nnode_vbl_dmdt(Topology([2, 2, 2, 2]), 4, r) == pytest.approx(
            4.0, abs=1e-8
        )
        assert vbl_dmdt_3node(T413, 4, r) == pytest.approx(3.0, abs=1e-8)
        assert vbl_dmdt_3node(Topology([1, 1, 2]), 3, r) == pytest.approx(
            1.0, abs=1e-8
        )
        # here lo rounded just below c, so a knot candidate landed on c
        assert 1.5 * vbl_dmdt_3node(Topology([1, 3, 3]), 5, r / 1.5) == pytest.approx(
            4.5, abs=1e-8
        )


def test_vbl_saturation_flag():
    assert vbl_dmdt_3node(T222, 2, 2.5) == 0.0
    assert vbl_dmdt_3node(T222, 4, 1.0) == pytest.approx(22.0 / 7.0)
    # (M1, 1, M3): the chain dies at c = 1/2 exactly
    assert vbl_dmdt_3node(T413, 4, 2.0) == 0.0


@pytest.mark.parametrize(
    "topology, L, r, expected",
    [
        (T413, 4, 1.0, 6.0),
        (T413, 4, 0.0, 12.0),
        (T222, 4, 1.0, 10.0),
        (T222, 2, 1.5, 1.0),
    ],
)
def test_vbl_short_term_frozen_values(topology, L, r, expected):
    assert vbl_dmdt_3node(topology, L, r, ST) == pytest.approx(expected, abs=1e-9)


def test_vbl_short_term_interior_kink():
    # The optimum split sits at tau = 4/11, a kink of hop 1's partial-round
    # cost that a uniform tau grid misses; a 400k-point scan gives 5.7142906.
    got = vbl_dmdt_3node(Topology([5, 1, 4]), 2, 4.0 / 11.0, ST)
    assert abs(got - 40.0 / 7.0) <= 1e-12


def _dense_hop_cost(pair, r, tau):
    """Exponent of one hop failing within each tau (array), fresh fades.

    A vectorised restatement of the per-round cost: m whole rounds share
    r - f*y evenly and the final fraction f carries y, minimised over the
    y at which either tradeoff term has a knot (clipped into [0, ycap]).
    """
    k = np.arange(pair.min_dim + 1, dtype=float)
    corners = (pair.m_tx - k) * (pair.m_rx - k)

    def d(s):
        return np.interp(s, k, corners)

    m = np.ceil(tau) - 1.0
    f = tau - m
    ycap = np.minimum(float(pair.min_dim), r / f)
    whole = np.maximum(m, 1.0)
    ys = [np.zeros_like(tau), ycap]
    ys += [np.minimum(kk, ycap) for kk in k]
    ys += [np.clip((r - m * kk) / f, 0.0, ycap) for kk in k]
    cost = np.min([m * d((r - f * y) / whole) + d(y) for y in ys], axis=0)
    cost = np.where(m == 0.0, d(ycap), cost)
    return np.where(tau <= 0.0, 0.0, cost)


@given(
    antennas=st.tuples(*[st.integers(min_value=1, max_value=5)] * 3),
    L=st.integers(min_value=1, max_value=7),
    r=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_vbl_short_term_not_above_dense_scan(antennas, L, r):
    # every returned value is itself an objective evaluation, so the check
    # only needs one side: nothing on a dense grid of splits does better
    topo = Topology(list(antennas))
    hop1, hop2 = topo.hop(0), topo.hop(1)
    tau = np.linspace(0.0, float(L), 2000 * L + 1)
    scan = _dense_hop_cost(hop1, r, tau) + _dense_hop_cost(hop2, r, L - tau)
    assert vbl_dmdt_3node(topo, L, r, ST) <= float(scan.min()) + 1e-12


def test_vbl_validation():
    with pytest.raises(ValueError):
        vbl_dmdt_3node(Topology([2, 2]), 4, 1.0)
    with pytest.raises(ValueError):
        vbl_dmdt_3node(Topology([2, 2, 2, 2]), 4, 1.0)
    with pytest.raises(ValueError):
        vbl_dmdt_3node(T222, 0, 1.0)
    with pytest.raises(ValueError):
        vbl_closed_form(Topology([3, 2, 3]), 4, 1.0)
    with pytest.raises(ValueError):
        vbl_closed_form(Topology([2, 2]), 4, 1.0)


# ---------------------------------------------------------------------------
# fixed split of a shared budget (FBL)


@pytest.mark.parametrize(
    "topology, L, r, channel, zero, expected",
    [
        (T413, 4, 1.0, LT, False, 1.5),
        (T413, 10, 1.0, LT, False, 2.625),
        (T413, 4, 1.0, ST, False, 3.0),
        (T413, 10, 1.0, ST, False, 21.0),
        (T413, 4, 0.0, LT, False, 7.0),
        (T413, 3, 0.0, LT, False, 7.0),
        (T413, 2, 1.0, LT, True, 0.0),
        (T413, 2, 0.5, LT, True, 1.5),
        (T222, 2, 1.0, LT, True, 1.0),
        (T222, 4, 1.0, LT, True, 3.0),
        (T222, 4, 1.0, LT, False, 3.5),
        (T222, 10, 1.0, LT, True, 11.0 / 3.0),
        (T141, 3, 0.5, LT, False, 4.0),
        (T141, 3, 0.5, LT, True, 3.0),
    ],
)
def test_fbl_frozen_values(topology, L, r, channel, zero, expected):
    got = fbl_dmdt_3node(topology, L, r, channel, allow_zero_rounds=zero)
    assert got == pytest.approx(expected, abs=1e-9)


def test_fbl_starved_hop_contributes_nothing():
    # A starved hop times out with probability one, so each boundary split
    # is worth just the other hop's diversity; the minimization then lands
    # on the weaker of the two instead of the interior sum.
    assert fbl_dmdt_3node(T413, 4, 0.0, allow_zero_rounds=True) == pytest.approx(3.0)


def test_fbl_split_range_validation():
    with pytest.raises(ValueError):
        fbl_dmdt_3node(T413, 2, 1.0)  # strict range needs a round per hop
    with pytest.raises(ValueError):
        fbl_dmdt_3node(T413, 1, 1.0, allow_zero_rounds=True)


# ---------------------------------------------------------------------------
# fixed per-hop windows


def test_fixed_is_weakest_link():
    for w1, w2 in [(1, 1), (2, 3), (4, 1)]:
        for r in (0.0, 0.5, 1.0):
            want = min(dmt(AntennaPair(4, 1), r / w1), dmt(AntennaPair(1, 3), r / w2))
            assert fixed_dmdt_3node(T413, w1, w2, r) == pytest.approx(want)
    with pytest.raises(ValueError):
        fixed_dmdt_3node(T413, 0, 2, 1.0)


def test_fixed_optimal_windows_frozen_values():
    opt = fixed_optimal_windows(T413, 4, 1.0)
    assert opt.windows == (2, 2)
    assert opt.value == pytest.approx(1.5)
    assert opt.split[0] == pytest.approx(1.725082782, abs=1e-6)
    assert opt.split_value == pytest.approx(1.6812706956, abs=1e-6)

    opt = fixed_optimal_windows(T413, 10, 1.0)
    assert opt.windows == (3, 7)
    assert opt.value == pytest.approx(18.0 / 7.0)
    assert opt.split[0] == pytest.approx(2.8210916542, abs=1e-6)
    assert opt.split_value == pytest.approx(2.5821091654, abs=1e-6)


def test_fixed_optimal_windows_zero_rate():
    opt = fixed_optimal_windows(T413, 4, 0.0)
    assert opt.split == (2.0, 2.0)
    assert opt.split_value == pytest.approx(3.0)
    assert opt.value == pytest.approx(3.0)
    with pytest.raises(ValueError):
        fixed_optimal_windows(T413, 1, 1.0)


def test_fixed_real_split_dominates_integer_split():
    for r in (0.25, 0.75, 1.0):
        opt = fixed_optimal_windows(T222, 5, r)
        assert opt.split_value >= opt.value - 1e-9
        assert opt.split[0] + opt.split[1] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# float-curve kernels against the per-call dmt oracles


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except ValueError as exc:
        return f"ValueError: {exc}"


_RATES = st.one_of(
    st.integers(0, 72).map(float),  # 0 and the integer knots of every window
    st.floats(0.0, 80.0),  # up to far past the top corner of every window
    st.just(math.inf),
)


def _integer_part(opt):
    """The windows and value of a fixed optimum, as repr holds their bits."""
    return repr((opt.windows, opt.value))


@given(
    antennas=st.tuples(*[st.integers(1, 6)] * 3),
    L=st.integers(2, 12),
    r=_RATES,
    channel=st.sampled_from([LT, ST]),
    zero=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_float_curve_kernels_match_dmt_oracles(antennas, L, r, channel, zero):
    topo = Topology(antennas)
    opt = fixed_optimal_windows(topo, L, r)
    assert _integer_part(opt) == repr(dmt_fixed_optimal_windows(topo, L, r))
    assert equalized_split_is_nearest(topo, L, r, opt)
    assert _outcome(
        fbl_dmdt_3node, topo, L, r, channel, allow_zero_rounds=zero
    ) == _outcome(dmt_fbl_dmdt_3node, topo, L, r, channel, allow_zero_rounds=zero)


@given(
    antennas=st.tuples(*[st.integers(1, 6)] * 3),
    L=st.integers(2, 60),
    r=st.one_of(
        st.integers(0, 24).map(float),  # 0, knots and full saturation
        st.integers(1, 240).map(lambda k: k / 6.0),  # r/w on a knot for many w
        st.floats(0.0, 12.0),
    ),
)
@example(antennas=(2, 3, 2), L=40, r=0.0)  # every split ties at full diversity
@example(antennas=(4, 4, 4), L=40, r=200.0)  # every split ties at zero
@example(antennas=(4, 1, 3), L=7, r=1.0)  # a0 + b0 = L: one tied pair, (3, 4)
# d1[4] == d2[2] == 0.5 and one round to spare: (4, 3) ties (5, 2) and wins
@example(antennas=(1, 2, 2), L=7, r=3.0)
@example(antennas=(2, 2, 1), L=7, r=3.0)  # the mirror image: (3, 4)
@settings(max_examples=150, deadline=None)
def test_fixed_split_ties_match_the_enumeration(antennas, L, r):
    # the one-pass tie-break must pick the pair the full enumeration picks,
    # at budgets well past the small ones above and on rates that tie
    topo = Topology(antennas)
    opt = fixed_optimal_windows(topo, L, r)
    assert _integer_part(opt) == repr(dmt_fixed_optimal_windows(topo, L, r))
    assert equalized_split_is_nearest(topo, L, r, opt)


# ---------------------------------------------------------------------------
# the equalized fixed split against exact arithmetic


@st.composite
def _split_cases(draw):
    antennas = draw(st.tuples(*[st.integers(1, 8)] * 3))
    L = draw(st.integers(2, 1000))
    return antennas, L, draw(st.floats(0.0, 1.2 * min(antennas) * L))


@given(_split_cases())
@example(((4, 1, 3), 4, 5e-324))  # subnormal: r/x rounds to 0 or to 5e-324
# hop 2's share, about r, is below half an ulp of L: L - x would read 0
@example(((2, 3, 4), 7, 1e-300))
@example(((2, 3, 4), 7, 5e-324))  # and here it is the smallest double
@example(((4, 4, 4), 10, 1e-16))  # the float root sits far from the real one
@example(((3, 5, 2), 33, 1e300))
@example(((4, 4, 4), 10, math.inf))
@example(((4, 4, 4), 10, 30.0))  # both curves zero on [2.5, 7.5]: the plateau
@example(((1, 1, 1), 2, 1.0093717939940279))  # plateau ending on hop 1's knot
@example(((2, 2, 2), 4, 2.0))  # the root on a knot of each hop, x = r = L - r
@example(((4, 2, 3), 7, 3.0))  # the root on hop 1's knot x = r
@example(((3, 2, 4), 7, 3.0))  # the root on hop 2's knot x = L - r
@example(((1, 4, 6), 3, 0.05))  # the bisection printed 3.932936046249546
@example(((4, 4, 4), 10, 0.25))  # exactly 15.65; the bisection's float was not
@example(((2, 2, 2), 4, 4 / 3))  # r/m1 + r/m2 = L: the plateau's edge, v* = 0
@settings(max_examples=200, deadline=None)
def test_equalized_split_keeps_the_bits_of_the_bisection(case):
    # the windows and value keep the bits of reading every window; the
    # split and its value are the doubles nearest the exact ones
    antennas, L, r = case
    topo = Topology(antennas)
    opt = fixed_optimal_windows(topo, L, r)
    assert _integer_part(opt) == repr(enumerated_fixed_windows(topo, L, [r])[0])
    assert equalized_split_is_nearest(topo, L, r, opt)


def _counting(monkeypatch):
    """Count the reads of every curve's evaluator d."""
    calls = [0]
    real = tradeoff._Curve.d

    def counted(curve, s):
        calls[0] += 1
        return real(curve, s)

    monkeypatch.setattr(tradeoff._Curve, "d", counted)
    return calls


def _split_reads(monkeypatch):
    """The curve reads of each _equalized_split call fixed_optimal_windows makes."""
    calls = _counting(monkeypatch)
    reads = []
    real = asymptotic._equalized_split

    def counted(*args):
        before = calls[0]
        out = real(*args)
        reads.append(calls[0] - before)
        return out

    monkeypatch.setattr(asymptotic, "_equalized_split", counted)
    return reads


def _extreme_rates(antennas, L, rng):
    """28 rates: flat, tiny and huge ones, a 0.05 grid, random and plateau edges."""
    top = min(antennas)
    d1, d2 = min(antennas[:2]), min(antennas[1:])
    edge = L * d1 * d2 / (d1 + d2)  # from here on both curves are zero mid-range
    step = max(1, round(1.2 * top * L / 0.05 / 12))
    return (
        [5e-324, 1e-300, 1e-16, 1e-12, 1e-8, 1e300, math.inf]
        + [round(0.05 * step * i, 10) for i in range(1, 12)]
        + [rng.uniform(0.0, 1.2 * top * L) for _ in range(7)]
        + [edge, edge * (1.0 - 2.0**-50), edge * (1.0 + 2.0**-50)]
    )


def test_equalized_split_grid_keeps_bits_in_fewer_reads(monkeypatch):
    # every chain of 1..8 antennas at seven budgets and 28 rates: 100,352
    # cases, each split and value the nearest double, read off no curve
    reads = _split_reads(monkeypatch)
    rng = random.Random(34)
    cases = moved = inexact = 0
    for antennas in itertools.product(range(1, 9), repeat=3):
        topo = Topology(antennas)
        for L in (2, 3, 4, 7, 10, 33, 1000):
            rates = _extreme_rates(antennas, L, rng)
            for r, want in zip(rates, enumerated_fixed_windows(topo, L, rates)):
                opt = fixed_optimal_windows(topo, L, r)
                cases += 1
                moved += _integer_part(opt) != repr(want)
                inexact += not equalized_split_is_nearest(topo, L, r, opt)
    assert (cases, moved, inexact) == (100_352, 0, 0)
    assert reads == [0] * cases


def test_fixed_windows_are_bisected_in_log_reads(monkeypatch):
    # the integer split keeps the bits of reading every window, up to
    # L = 1000, and reads each curve O(log L) times: three bisections over
    # the L - 1 windows, and the best value at the crossing; the split
    # reads neither curve
    calls = _counting(monkeypatch)
    for antennas in itertools.product(range(1, 5), repeat=3):
        topo = Topology(antennas)
        for L in (2, 3, 4, 5, 7, 10, 33, 1000):
            # rates on the knots of small windows, and up to every curve's end
            rates = [k / 4 for k in range(9)] + [L * k / 3 for k in range(1, 13)]
            for r, want in zip(rates, enumerated_fixed_windows(topo, L, rates)):
                calls[0] = 0
                got = fixed_optimal_windows(topo, L, r)
                assert 0 < calls[0] <= 4 * (L - 1).bit_length() + 4
                assert _integer_part(got) == repr(want)
                assert equalized_split_is_nearest(topo, L, r, got)


@pytest.mark.parametrize(
    "antennas, L, top",
    [((4, 4, 4), 10, 4.0), ((4, 1, 3), 4, 1.0), ((2, 2, 2), 10, 2.0)],
)
def test_equalized_split_reads_on_the_benchmark_grids(monkeypatch, antennas, L, top):
    # at no rate of these grids does the solved split read either curve
    reads = _split_reads(monkeypatch)
    topo = Topology(antennas)
    for i in range(1, int(round(top / 0.05)) + 1):
        r = round(0.05 * i, 10)
        assert equalized_split_is_nearest(topo, L, r, fixed_optimal_windows(topo, L, r))
    assert reads == [0] * int(round(top / 0.05))


def _mp_curve(curve, s):
    """The piecewise-linear curve at s in mpmath arithmetic."""
    top = len(curve) - 1
    if s >= top:
        return mpmath.mpf(0)
    k = int(mpmath.floor(s))
    return curve[k] + (s - k) * (curve[k + 1] - curve[k])


def test_equalized_split_solves_the_x_space_definition():
    # d1(r/x) = d2(r/(L - x)) solved at 40 digits by halving (0, L), the
    # root kept where d1 <= d2: the split and its value round to the doubles
    # fixed_optimal_windows prints
    rng = random.Random(40)
    with mpmath.workdps(40):
        for _ in range(200):
            antennas = tuple(rng.randint(1, 8) for _ in range(3))
            L = rng.choice([2, 3, 4, 7, 10, 33, 1000])
            topo = Topology(antennas)
            c1, c2 = _curve(topo.hop(0)).corners, _curve(topo.hop(1)).corners
            m1, m2 = len(c1) - 1, len(c2) - 1
            r = rng.uniform(0.0, 1.1 * L * m1 * m2 / (m1 + m2))  # 1/11 on the plateau
            R, lo, hi = mpmath.mpf(r), mpmath.mpf(0), mpmath.mpf(L)
            x = L / 2
            while lo < x < hi:  # until lo and hi are adjacent at 40 digits
                if _mp_curve(c1, R / x) <= _mp_curve(c2, R / (L - x)):
                    lo = x
                else:
                    hi = x
                x = (lo + hi) / 2
            opt = fixed_optimal_windows(topo, L, r)
            assert opt.split_value == float(_mp_curve(c1, R / lo)), (antennas, L, r)
            if opt.split_value:  # off the zero plateau, where the root is unique
                assert opt.split[0] == float(lo), (antennas, L, r)


# ---------------------------------------------------------------------------
# short-term kernels against the per-split-point oracle


def _per_tau_chain(topo, L, r):
    """Weakest three-node window of the chain, every hop costed per tau."""
    return min(
        per_tau_vbl_short_term(sub.hop(0), sub.hop(1), L, r)
        for sub in topo.sub_topologies()
    )


@given(
    pair=st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda t: AntennaPair(*t)),
    r=st.one_of(st.integers(0, 24).map(float), st.floats(0.0, 30.0)),
    taus=st.lists(
        st.one_of(
            st.integers(0, 12).map(float),
            st.tuples(st.integers(1, 60), st.integers(1, 7)).map(lambda t: t[0] / t[1]),
            st.floats(0.0, 12.0),
        ),
        max_size=12,
    ),
)
# the minimum sits where the whole rounds reach a knot: y = (r - m*k)/f
@example(pair=AntennaPair(2, 2), r=5.0, taus=[14.0 / 3.0])
@example(pair=AntennaPair(3, 4), r=math.inf, taus=[0.0, 0.5, 1.0, 2.5, 3.0])
# r/f == min_dim exactly: ycap is min_dim and r/f both
@example(pair=AntennaPair(4, 4), r=2.0, taus=[0.5, 2.5])
# a sliver of a final round: f = 2**-40, after three whole rounds and after none
@example(pair=AntennaPair(3, 2), r=2.5, taus=[3.0 + 2.0**-40, 2.0**-40])
@example(pair=AntennaPair(4, 3), r=1.5, taus=[0.0])
@settings(max_examples=300, deadline=None)
def test_partial_round_costs_match_per_tau_oracle(pair, r, taus):
    costs = _partial_round_costs(_curve(pair), r, set(taus))
    assert sorted(costs) == sorted(set(taus))
    for tau in taus:
        assert costs[tau].hex() == partial_round_cost(pair, r, tau).hex()


_ST_RATES = st.one_of(
    st.integers(0, 48).map(float),  # 0, the knots, and at and past saturation
    st.integers(1, 96).map(lambda k: k / 4.0),
    st.floats(0.0, 50.0),
    st.just(math.inf),
)


@given(
    antennas=st.one_of(
        st.tuples(*[st.integers(1, 6)] * 3),
        # (a, b, a): mirrored hops, one curve; a = b is a one-antenna-count chain
        st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda t: (*t, t[0])),
    ),
    L=st.integers(1, 10),
    r=_ST_RATES,
)
@example(antennas=(4, 4, 4), L=10, r=2.0)
@example(antennas=(2, 3, 2), L=1, r=0.0)
@example(antennas=(3, 2, 3), L=1, r=0.75)
@example(antennas=(4, 4, 4), L=3, r=12.0)  # saturation: every split is free
@example(antennas=(6, 3, 4), L=6, r=7.290584483674822)  # a y = (r - m*k)/f optimum
@settings(max_examples=200, deadline=None)
def test_vbl_short_term_matches_per_tau_oracle(antennas, L, r):
    topo = Topology(antennas)
    got = vbl_dmdt_3node(topo, L, r, ST)
    assert got.hex() == per_tau_vbl_short_term(topo.hop(0), topo.hop(1), L, r).hex()


@given(
    min_dim=st.integers(1, 8),
    r=_ST_RATES | st.sampled_from([5e-324, 1e-300]),
    m=st.integers(0, 40),
)
@example(min_dim=2, r=5e-324, m=0)  # 5e-324 / 2 rounds to 0, which is no fraction
@example(min_dim=4, r=2.0, m=1)  # r - m*a reaches 0 at a = 2
@settings(max_examples=200, deadline=None)
def test_kink_fractions_are_the_full_double_loop(min_dim, r, m):
    # the loop stops once r - m*a <= 0, and drops no f of the full loop
    every = {(r - m * a) / b for a in range(min_dim + 1) for b in range(1, min_dim + 1)}
    assert _kink_fractions(min_dim, r, m) == {f for f in every if 0.0 < f < 1.0}


def test_short_term_kink_sets_are_formed_once_per_call(monkeypatch):
    # (4, 4, 4) at L = 10 over the 81 rates of the benchmark's 0.05 grid: one
    # set per whole-round count m and per call, for both hops' min_dim of 4
    calls = [0]
    real = asymptotic._kink_fractions

    def counted(min_dim, r, m):
        calls[0] += 1
        return real(min_dim, r, m)

    monkeypatch.setattr(asymptotic, "_kink_fractions", counted)
    topo = Topology((4, 4, 4))
    for i in range(81):
        r = round(0.05 * i, 10)
        got = vbl_dmdt_3node(topo, 10, r, ST)
        assert got.hex() == per_tau_vbl_short_term(topo.hop(0), topo.hop(1), 10, r).hex()
    assert calls[0] <= 810


def test_short_term_tables_cost_no_more_taus(monkeypatch):
    # the same 81 calls: the taus the hop tables cost, 7,354 in all, bound the
    # kernel's work; a candidate set that grows moves this count
    taus = [0]
    real = asymptotic._partial_round_costs

    def counted(curve, r, need):
        taus[0] += len(need)
        return real(curve, r, need)

    monkeypatch.setattr(asymptotic, "_partial_round_costs", counted)
    topo = Topology((4, 4, 4))
    for i in range(81):
        vbl_dmdt_3node(topo, 10, round(0.05 * i, 10), ST)
    assert taus[0] <= 7354


@given(
    # few antenna counts, so hops repeat along the chain and its windows
    # share hops and curves
    antennas=st.lists(st.sampled_from([1, 2, 3, 4]), min_size=3, max_size=6),
    L=st.integers(1, 12),
    r=_ST_RATES,
)
@example(antennas=[2, 3, 2, 4, 1], L=8, r=1.5)
@example(antennas=[4, 4, 4, 4], L=1, r=0.0)
@example(antennas=[2, 3, 2, 3, 2, 3], L=7, r=0.0)
@example(antennas=[3, 3, 3, 3, 3], L=12, r=36.0)  # saturated on both budgets
@settings(max_examples=150, deadline=None)
def test_chain_kernels_match_per_tau_oracle(antennas, L, r):
    topo, n = Topology(antennas), len(antennas)
    got = nnode_vbl_dmdt(topo, L, r, ST)
    assert got.hex() == _per_tau_chain(topo, L, r).hex()
    lt = min(vbl_dmdt_3node(sub, L, r, LT) for sub in topo.sub_topologies())
    assert nnode_vbl_dmdt(topo, L, r, LT).hex() == lt.hex()
    if L <= n:
        with pytest.raises(ValueError):
            nnode_fbl_bounds(topo, L, r, ST)
        return
    lower, upper = nnode_fbl_bounds(topo, L, r, ST)
    assert lower.hex() == _per_tau_chain(topo, L - n, r).hex()
    assert upper.hex() == got.hex()


@pytest.mark.parametrize("m_tx, m_rx", [(1, 1), (4, 1), (1, 3), (2, 2), (4, 3), (6, 6)])
def test_d_scalar_matches_dmt_bitwise(m_tx, m_rx):
    # dmt and the kernels read the cached curve's d; the np.interp curve it
    # replaced, and the float-corner evaluation the kernels first made, must
    # give the same bits
    pair = AntennaPair(m_tx, m_rx)
    assert _curve(pair).corners == tuple(corners(pair))
    assert all(type(c) is int for c in _curve(pair).corners)
    m = pair.min_dim
    rng = np.random.default_rng(10 * m_tx + m_rx)
    # every knot from 0 to min_dim, past the top corner, and random points
    points = [*map(float, range(m + 1)), m + 0.5, 2.0 * m + 3.0, 1e300, math.inf]
    points += rng.uniform(0.0, m + 1.0, 200).tolist()
    for s in points:
        got = dmt(pair, s)
        assert type(got) is float
        assert got.hex() == interp_dmt(pair, s).hex(), s
        assert got.hex() == corner_curve(float_corners(pair), s).hex(), s


def test_curve_is_built_once_per_pair():
    # every kernel and dmt read the one object of each antenna pair
    for a, b in itertools.product(range(1, 9), repeat=2):
        pair = AntennaPair(a, b)
        assert _curve(pair) is _curve(AntennaPair(a, b))
    assert "_curve" not in tradeoff.__all__


# ---------------------------------------------------------------------------
# power scaling


def test_power_scaling_never_hurts():
    # power exponent g turns each kernel K into g * K(r / g)
    for r in (0.0, 0.5, 1.0):
        base = vbl_dmdt_3node(T222, 4, r)
        assert 2.0 * vbl_dmdt_3node(T222, 4, r / 2.0) >= base - 1e-12


# ---------------------------------------------------------------------------
# longer chains


def test_nnode_vbl_weakest_window():
    assert nnode_vbl_dmdt(Topology([4, 1, 3, 1]), 4, 1.0) == pytest.approx(2.0)
    assert nnode_vbl_dmdt(Topology([2, 2, 2, 2]), 4, 1.0) == pytest.approx(22.0 / 7.0)
    assert nnode_vbl_dmdt(Topology([2, 2, 2, 2]), 6, 1.0) == pytest.approx(38.0 / 11.0)
    # dual route: explicit minimum over the contiguous windows
    topo = Topology([3, 1, 4, 2])
    want = min(vbl_dmdt_3node(sub, 5, 0.7) for sub in topo.sub_topologies())
    assert nnode_vbl_dmdt(topo, 5, 0.7) == pytest.approx(want)
    with pytest.raises(ValueError):
        nnode_vbl_dmdt(Topology([2, 2]), 4, 1.0)


def test_nnode_kernels_keep_their_values_on_a_reused_chain():
    # the chain keeps its sub-chains; a second call on it reads the same
    # tuple and gives the values a fresh chain gives
    topo = Topology([2, 3, 2, 4, 1])
    subs = topo.sub_topologies()
    lt = 3.1724137931034484
    want = {ST: (23.0, (3.0, 23.0)), LT: (lt, (1.3333333333333335, lt))}
    for channel, (vbl, bounds) in want.items():
        for chain in (topo, topo, Topology([2, 3, 2, 4, 1])):
            assert nnode_vbl_dmdt(chain, 8, 1.5, channel) == vbl
            assert nnode_fbl_bounds(chain, 8, 1.5, channel) == bounds
    assert topo.sub_topologies() is subs


def test_nnode_fixed_bounds_frozen():
    topo = Topology([2, 2, 2, 2])
    lower, upper = nnode_fixed_bounds(topo, [2, 2, 2], 6, 1.0)
    assert lower == pytest.approx(3.0)
    assert upper == pytest.approx(38.0 / 11.0)
    assert lower <= upper + 1e-12
    with pytest.raises(ValueError):
        nnode_fixed_bounds(topo, [2, 2], 6, 1.0)
    with pytest.raises(ValueError):
        nnode_fixed_bounds(Topology([2, 2]), [2], 2, 1.0)


def test_nnode_fbl_bounds_frozen():
    topo = Topology([2, 2, 2, 2])
    lower, upper = nnode_fbl_bounds(topo, 8, 1.0)
    assert lower == pytest.approx(22.0 / 7.0)
    assert upper == pytest.approx(3.6)
    with pytest.raises(ValueError):
        nnode_fbl_bounds(topo, 4, 1.0)  # budget must exceed the node count


def test_shared_budget_bracket_spot():
    # The dynamic-sharing values at shrunk and full budgets sandwich the
    # offline-split protocol once starved splits are admitted.
    lower, upper = nnode_fbl_bounds(T413, 10, 1.0)
    middle = fbl_dmdt_3node(T413, 10, 1.0, allow_zero_rounds=True)
    assert lower == pytest.approx(2.5)
    assert upper == pytest.approx(8.0 / 3.0)
    assert lower - 1e-9 <= middle <= upper + 1e-9


def test_large_budget_gap_closes():
    vbl = vbl_dmdt_3node(T222, 100, 1.0)
    fbl = fbl_dmdt_3node(T222, 100, 1.0, allow_zero_rounds=True)
    assert vbl == pytest.approx(3.969849246, abs=1e-6)
    assert fbl == pytest.approx(3.969696970, abs=1e-6)
    assert 0.0 <= vbl - fbl < 2e-4


# ---------------------------------------------------------------------------
# curve invariants of every kernel dmdt-asymptotic sweeps


def _swept_kernels(topo, L, channel, zero, windows):
    """Each diversity(r) dmdt-asymptotic can print on this chain.

    The chain's own dynamic-sharing value, and every three-node kernel on
    each of its three-node windows.
    """
    kernels = {"nnode vbl": lambda r: nnode_vbl_dmdt(topo, L, r, channel)}
    for i, sub in enumerate(topo.sub_topologies()):
        kernels.update({
            f"fixed optimum {i}": lambda r, sub=sub: fixed_optimal_windows(
                sub, L, r
            ).value,
            f"fixed equalized {i}": lambda r, sub=sub: fixed_optimal_windows(
                sub, L, r
            ).split_value,
            f"fixed {i}": lambda r, sub=sub: fixed_dmdt_3node(sub, *windows, r),
            f"fbl {i}": lambda r, sub=sub: fbl_dmdt_3node(
                sub, L, r, channel, allow_zero_rounds=zero
            ),
            f"vbl {i}": lambda r, sub=sub: vbl_dmdt_3node(sub, L, r, channel),
        })
    return kernels


_CURVE_RATES = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-17, 1e-16]),
    st.floats(0.0, 1e-12),  # subnormals included
    st.floats(0.0, 10.0),  # past the top corner of every hop
)


@given(
    antennas=st.lists(st.integers(1, 5), min_size=3, max_size=5),
    L=st.integers(3, 16),
    channel=st.sampled_from([LT, ST]),
    zero=st.booleans(),
    windows=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    rates=st.tuples(_CURVE_RATES, _CURVE_RATES).map(sorted),
)
# long-term VBL: a division by zero, a lost-digits bump, a knot candidate on c
@example(antennas=[2, 2, 2], L=4, channel=LT, zero=False, windows=(1, 1),
         rates=[0.0, 1e-16])
@example(antennas=[1, 1, 2], L=3, channel=LT, zero=False, windows=(1, 1),
         rates=[0.0, 8.323789112106525e-13])
@example(antennas=[1, 3, 3], L=5, channel=LT, zero=False, windows=(1, 1),
         rates=[0.0, 1e-300 / 1.5])
@settings(max_examples=200, deadline=None)
def test_swept_kernels_finite_nonnegative_nonincreasing(
    antennas, L, channel, zero, windows, rates
):
    lo, hi = rates
    topo = Topology(antennas)
    for name, diversity in _swept_kernels(topo, L, channel, zero, windows).items():
        d_lo, d_hi = diversity(lo), diversity(hi)
        assert math.isfinite(d_lo) and math.isfinite(d_hi), (name, lo, hi)
        assert d_lo >= 0.0 and d_hi >= 0.0, (name, lo, d_lo, hi, d_hi)
        assert d_hi <= d_lo + 1e-9, (name, lo, d_lo, hi, d_hi)


@pytest.mark.parametrize("r", [0.0, 5e-324, 0.5, 1.0, 2.5, 40.0, math.inf])
def test_kernel_results_are_python_floats(r):
    # at r = 0 the long-term split and the equalized split return the top
    # corner, which is an integer of the curve: it must still print as 16.0
    for antennas in [(4, 4, 4), (2, 3, 1), (1, 1, 1), (4, 1, 3), (2, 2, 2), (1, 3, 1)]:
        topo = Topology(antennas)
        values = [dmt(topo.hop(0), r), fixed_dmdt_3node(topo, 1, 2, r)]
        opt = fixed_optimal_windows(topo, 5, r)
        values += [opt.value, *opt.split, opt.split_value]
        assert all(type(w) is int for w in opt.windows)
        for channel in (LT, ST):
            values.append(fbl_dmdt_3node(topo, 5, r, channel))
            values.append(fbl_dmdt_3node(topo, 5, r, channel, allow_zero_rounds=True))
            values.append(vbl_dmdt_3node(topo, 5, r, channel))
            chain = Topology(antennas + antennas[:2])
            values.append(nnode_vbl_dmdt(chain, 6, r, channel))
            values.extend(nnode_fbl_bounds(chain, 6, r, channel))
        if antennas not in [(4, 4, 4), (2, 3, 1)]:  # the closed forms' families
            values.append(vbl_closed_form(topo, 5, r))
        assert [type(v) for v in values] == [float] * len(values), (antennas, values)
