"""Finite-SNR outage, service moments, deadlines, and window optimization.

Frozen tables were computed with scipy's regularized incomplete gamma as an
independent engine; see the module docstrings for the closed forms.
"""

import builtins
import contextlib
import functools
import math
import pickle
import re
import sys
import threading
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

import mharq.finite_snr as finite_snr
from mharq.finite_snr import (
    CandidateRow,
    ErrorBreakdown,
    FiniteSnrScenario,
    UnstableQueueError,
    WindowInfeasibleError,
    _block_tails,
    _composition_matrix,
    _gamma_tail,
    _row_sums,
    deadline_exponent,
    deadline_probability,
    evaluate_windows,
    mean_service_time,
    message_error,
    optimize_windows,
    per_hop_outage,
)
from mharq.netsim import SimConfig
from mharq.numerics import regularized_lower_gamma
from mharq.tradeoff import AntennaPair, ChannelAssumption, FixedArq, Topology
from oracles import (
    CubeWalkInfeasibleError,
    block_tails,
    combination_gaps,
    compensated_builtin_sum,
    cube_walk_optimize_windows,
    finite_multiplexing,
    plain_sum,
)
from test_cli_corpus import CASES, golden, run_case, stored

HOP1 = AntennaPair(4, 1)
HOP2 = AntennaPair(1, 3)
T413 = Topology([4, 1, 3])

SC_20DB = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=10.0, deadline_blocks=5.0)

# P{hop not decoded within window} for windows 1..10 at rho = 100, r = 1.
OUTAGE_TABLE = {
    HOP1: [
        5.665299e-01, 5.365422e-04, 1.697599e-05, 2.207370e-06, 5.380044e-07,
        1.848408e-07, 7.859911e-08, 3.860670e-08, 2.103202e-08, 1.238419e-08,
    ],
    HOP2: [
        5.768099e-01, 6.446392e-04, 2.960262e-05, 5.161468e-06, 1.587794e-06,
        6.604859e-07, 3.301490e-07, 1.865009e-07, 1.149047e-07, 7.551106e-08,
    ],
}


@pytest.mark.parametrize("key", list(OUTAGE_TABLE))
def test_ostbc_outage_frozen_tables(key):
    for window, expected in enumerate(OUTAGE_TABLE[key], start=1):
        got = per_hop_outage(key, window, SC_20DB, code_model="ostbc")
        assert got == pytest.approx(expected, rel=1e-6), f"window {window}"


def test_general_model_collapses_to_ostbc_for_rank_one():
    # min(m_tx, m_rx) = 1 leaves a single eigenmode, where the uncoded and
    # orthogonal-code outage events are the same gamma tail, bit for bit
    coded = FiniteSnrScenario(100.0, 1.0, spatial_code_rate=0.6)
    for pair in (HOP1, HOP2):
        for window in (1, 2, 4):
            logdet = per_hop_outage(pair, window, SC_20DB, code_model="logdet")
            ostbc = per_hop_outage(pair, window, SC_20DB, code_model="ostbc")
            assert logdet == ostbc
            # a spatial code rate below 1 moves the code's tail, not log-det's
            assert per_hop_outage(pair, window, coded, code_model="logdet") == logdet
            assert per_hop_outage(pair, window, coded, code_model="ostbc") > ostbc


def test_rank_one_models_agree_where_the_threshold_base_overflows():
    # at 1e308 the (1, 3) hop's threshold base 1 + 3 snr is inf
    huge = FiniteSnrScenario(1e308, 1.0)
    for pair in (HOP1, HOP2):
        for window in (1, 2, 4):
            logdet = per_hop_outage(pair, window, huge, code_model="logdet")
            ostbc = per_hop_outage(pair, window, huge, code_model="ostbc")
            assert logdet == ostbc
    assert per_hop_outage(HOP2, 1, huge, code_model="logdet") > 0.5


def test_rate_split_brute_force_is_only_a_lower_bound():
    # The supremum over ordered splits b1 <= b2 of the rate-exponent budget,
    # which the rank-2 outage was once searched for, scanned directly: it
    # sits below the exact value, by a factor of 3.4 at window 1 and 4.7 at
    # window 2
    pair = AntennaPair(2, 2)
    scenario = FiniteSnrScenario(10.0, 1.2)
    rho, r = scenario.snr, scenario.multiplexing_gain
    base = 1.0 + pair.m_rx * rho
    for window, factor in ((1, 3.0), (2, 4.0)):
        budget = r / window
        best = 0.0
        for b1 in np.linspace(0.0, budget / 2.0, 2001):
            b2 = budget - b1
            x1 = (pair.m_tx / rho) * (base**b1 - 1.0)
            x2 = (pair.m_tx / rho) * (base**b2 - base**b1)
            best = max(best, gammainc(1, x1) * gammainc(3, x2))
        got = per_hop_outage(pair, window, scenario, code_model="logdet")
        assert best * factor < got


def test_outage_basic_properties():
    scenario = FiniteSnrScenario(10.0, 0.8)
    values = [
        per_hop_outage(AntennaPair(2, 2), w, scenario, code_model="ostbc")
        for w in (0.5, 1, 2, 3, 8)
    ]
    assert all(0.0 <= p <= 1.0 for p in values)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    # Zero target rate cannot be in outage.
    zero = FiniteSnrScenario(10.0, 0.0)
    assert per_hop_outage(AntennaPair(2, 2), 1, zero) == 0.0


def test_ostbc_outage_keeps_the_direct_form_where_it_fits():
    pair = AntennaPair(4, 3)
    for snr, r, t in [(100.0, 1.0, 1.0), (10.0, 0.5, 3.0), (1e300, 1.0, 2.0)]:
        x = (4 / snr) * ((1.0 + 3 * snr) ** (r / t) - 1.0)
        got = _gamma_tail(pair, snr, r, 1.0, t)
        assert got == regularized_lower_gamma(12, x)


@pytest.mark.parametrize("snr", [1e-3, 1e-8, 1e-15, 1e-300, 5e-324])
@pytest.mark.parametrize(
    "pair, r, rate, t",
    [
        (AntennaPair(4, 1), 1.0, 1.0, 2.0),
        (AntennaPair(1, 3), 1.0, 1.0, 3.0),
        (AntennaPair(4, 4), 2.5, 0.5, 1.0),
        (AntennaPair(2, 3), 1e-3, 1.0, 25.0),
    ],
)
def test_ostbc_outage_threshold_at_low_snr_against_mpmath(monkeypatch, pair, snr, r, rate, t):
    # 1 + m_rx snr rounds toward 1 here, and at 5e-324 m_tx / snr is inf; x
    # is (m_tx / snr)((1 + m_rx snr)**e - 1) for the float exponent e, in 50
    # digits
    monkeypatch.setattr(finite_snr, "regularized_lower_gamma", lambda shape, x: x)
    exponent = r / (rate * t)
    with mpmath.workdps(50):
        s = mpmath.mpf(snr)
        want = pair.m_tx / s * mpmath.expm1(exponent * mpmath.log1p(pair.m_rx * s))
    got = _gamma_tail(pair, snr, r, rate, t)
    assert got == pytest.approx(float(want), rel=1e-14)


@pytest.mark.parametrize("pair", [AntennaPair(1, 3), AntennaPair(2, 3), AntennaPair(4, 4)])
def test_ostbc_outage_where_the_threshold_base_overflows(pair):
    # 1 + m_rx * snr is inf here; at r = 1 over one block the threshold is
    # x = m_tx * m_rx (1 + 1 / (m_rx snr)), which a finite base gives too
    huge, large = FiniteSnrScenario(1e308, 1.0), FiniteSnrScenario(1e307, 1.0)
    assert 1.0 + pair.m_rx * huge.snr == math.inf
    want = gammainc(pair.m_tx * pair.m_rx, pair.m_tx * pair.m_rx)
    for scenario in (huge, large):
        got = _gamma_tail(pair, scenario.snr, scenario.multiplexing_gain, 1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-12)


def test_ostbc_outage_where_the_threshold_power_overflows():
    # base**exponent is past the largest float though x is not:
    # x = (4 / snr) base**1.0003 = 4 * 1.7e308**0.0003, about 4.95
    snr = 1.7e308
    got = _gamma_tail(HOP1, snr, 1.0003, 1.0, 1.0)
    assert got == pytest.approx(gammainc(4, 4.0 * snr**0.0003), rel=1e-12)
    assert 0.5 < got < 0.9
    # and where x is past it as well, the tail saturates: 101**200 at 20 dB
    assert _gamma_tail(HOP1, 100.0, 200.0, 1.0, 1.0) == 1.0


@pytest.mark.parametrize(
    "snr, r, low, high", [(1e6, 50.0, 1.0, 1.0), (1e308, 1.0, 0.0, 1e-300)]
)
def test_rank_two_logdet_outage_where_the_threshold_power_overflows(snr, r, low, high):
    # base**b overflows, or the base does; x is then formed in logs, with no
    # numpy warning, and a rank-3 search may still refuse, but with no warning
    scenario = FiniteSnrScenario(snr, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert low <= per_hop_outage(AntennaPair(2, 2), 1.0, scenario) <= high
        with contextlib.suppress(ValueError):
            per_hop_outage(AntennaPair(3, 3), 1.0, scenario)


# every hop of rank 2 the antenna limit allows
RANK_TWO = [AntennaPair(2, n) for n in range(2, 9)] + [AntennaPair(n, 2) for n in range(3, 9)]


def test_rank_two_logdet_outage_known_values():
    # (2, 2) at SNR 10 and r = 1 over one and two blocks, to nine digits;
    # 1e6 Monte Carlo draws read 0.1940 +- 0.0004 and 0.00302 +- 0.00005
    scenario = FiniteSnrScenario(10.0, 1.0)
    got = [per_hop_outage(AntennaPair(2, 2), t, scenario) for t in (1, 2)]
    assert [f"{p:.9g}" for p in got] == ["0.193641156", "0.00306711331"]


def test_rank_two_logdet_outage_keeps_its_digits_at_twice_the_nodes(monkeypatch):
    # from SNR 0.5 to 1e300, and r / window up to past the rank (the window
    # only scales the rate): wherever p >= 1e-12, 32 nodes a panel move the
    # value by at most 1e-9 of itself
    points = list(
        product(RANK_TWO, (0.5, 10.0, 1e4, 1e12, 1e300), (0.125, 0.5, 1.0, 1.7, 1.99, 3.0))
    )

    def values():
        return [per_hop_outage(pair, 1.0, FiniteSnrScenario(snr, r)) for pair, snr, r in points]

    at16 = values()
    monkeypatch.setattr(finite_snr, "_NODES", 32)
    checked = [(a, b) for a, b in zip(at16, values()) if b >= 1e-12]
    assert len(checked) > len(points) // 3
    assert all(abs(a - b) <= 1e-9 * b for a, b in checked)


def test_rank_two_logdet_outage_against_monte_carlo():
    # the rank-2 hops of 2..5 antennas a side at 5 SNRs from 0.5 to 1e4,
    # r in {0.25, 1, 1.7} and windows 1, 2, 3 and 5: every point with
    # p >= 1e-4 lies within |z| <= 4 of 1e5 seeded eigenvalue draws.  The
    # eigenvalues of (2, n) and (n, 2) share one law, so both pairs and all
    # their points read the same draws
    rng = np.random.default_rng(22)
    n = 100_000
    checked = 0
    for wide in range(2, 6):
        parts = rng.standard_normal((2, n, 2, wide)) / math.sqrt(2.0)
        h = parts[0] + 1j * parts[1]  # unit complex Gaussian entries
        eig = np.linalg.eigvalsh(h @ np.conj(np.swapaxes(h, -1, -2)))
        pairs = dict.fromkeys((AntennaPair(2, wide), AntennaPair(wide, 2)))
        for pair, snr in product(pairs, np.geomspace(0.5, 1e4, 5)):
            rates = np.log1p(snr / pair.m_tx * eig).sum(axis=1)
            for r, t in product((0.25, 1.0, 1.7), (1, 2, 3, 5)):
                p = per_hop_outage(pair, t, FiniteSnrScenario(snr, r))
                if p >= 1e-4:
                    k = np.count_nonzero(rates < r / t * math.log1p(pair.m_rx * snr))
                    assert abs(k - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p)), (pair, snr, r, t)
                    checked += 1
    assert checked > 100


@given(
    pair=st.sampled_from(RANK_TWO),
    snr=st.floats(5e-324, 1e308),
    r=st.floats(0.0, 8.0),
    windows=st.lists(st.floats(0.25, 16.0), min_size=2, max_size=2).map(sorted),
)
@example(pair=AntennaPair(2, 2), snr=1e308, r=1.0, windows=[1.0, 1.0])
@example(pair=AntennaPair(8, 2), snr=5e-324, r=8.0, windows=[0.25, 16.0])
@example(pair=AntennaPair(2, 8), snr=1e-16, r=8.0, windows=[0.25, 0.5])
@example(pair=AntennaPair(2, 5), snr=1e6, r=8.0, windows=[0.25, 0.5])  # sure outage
@settings(max_examples=150, deadline=None)
def test_rank_two_logdet_outage_is_a_probability_that_falls_with_the_window(
    pair, snr, r, windows
):
    # a longer window never raises the outage by more than 1e-12 of itself,
    # and no SNR a float holds raises a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short, long = (per_hop_outage(pair, t, FiniteSnrScenario(snr, r)) for t in windows)
    assert 0.0 <= long <= short * (1.0 + 1e-12) <= 1.0 + 1e-12
    assert short <= 1.0


def test_outage_validation():
    with pytest.raises(ValueError):
        per_hop_outage(HOP1, 0, SC_20DB)
    with pytest.raises(ValueError):
        per_hop_outage(HOP1, -1.0, SC_20DB)
    with pytest.raises(ValueError):
        per_hop_outage(HOP1, 1, SC_20DB, code_model="turbo")
    with pytest.raises(ValueError, match="exact up to rank 2, not at rank 8 .8x8 hop.; "):
        per_hop_outage(AntennaPair(8, 8), 1, SC_20DB, code_model="logdet")
    # a rank-3 hop at zero rate is never in outage, as every hop
    zero = FiniteSnrScenario(100.0, 0.0)
    assert per_hop_outage(AntennaPair(4, 3), 1, zero, code_model="logdet") == 0.0
    with pytest.raises(ValueError, match="choose from \\('logdet', 'ostbc'\\)"):
        # the log-det model has one name, shared with the simulator
        per_hop_outage(HOP1, 1, SC_20DB, code_model="general")


def test_chain_outage_summary():
    alloc = FixedArq([2, 3])
    per_hop = [
        per_hop_outage(T413.hop(i), w, SC_20DB, code_model="ostbc")
        for i, w in enumerate(alloc.windows)
    ]
    assert per_hop[0] == pytest.approx(5.365422e-04, rel=1e-6)
    assert per_hop[1] == pytest.approx(2.960262e-05, rel=1e-6)
    # the chain outage is the union bound of the per-hop terms
    assert message_error(T413, alloc, SC_20DB).p_outage == sum(per_hop)
    with pytest.raises(ValueError):
        message_error(T413, FixedArq([2, 3, 1]), SC_20DB)


def test_mean_service_time_blockwise():
    pair = AntennaPair(2, 2)
    scenario = FiniteSnrScenario(10**0.3, 1.0)
    assert mean_service_time(pair, 1, scenario) == 1.0
    mu4 = mean_service_time(pair, 4, scenario)
    assert mu4 == pytest.approx(1.609645391121536, rel=1e-9)
    # whole-block mean = 1 + outage tail summed over intermediate windows
    want = 1.0 + sum(
        per_hop_outage(pair, j, scenario, code_model="ostbc") for j in (1, 2, 3)
    )
    assert mu4 == pytest.approx(want, rel=1e-12)
    assert mu4 <= 4.0
    mus = [mean_service_time(pair, w, scenario) for w in range(1, 6)]
    assert all(b >= a for a, b in zip(mus, mus[1:]))
    with pytest.raises(ValueError):
        mean_service_time(pair, 0, scenario)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=5),
    st.lists(st.lists(st.integers(1, 9), min_size=4, max_size=4), min_size=1, max_size=4),
    st.floats(0.1, 1e6),
    st.floats(0.0, 4.0),
    st.floats(0.05, 1.0, exclude_max=True),
)
def test_window_means_are_one_plus_the_block_tails(antennas, rows, snr, r, r_s):
    # the window search and mean_service_time read one whole-block law, so
    # their means agree bit for bit, at any spatial code rate
    topology = Topology(antennas)
    windows = np.array(rows)[:, : topology.n_hops]
    scenario = FiniteSnrScenario(
        snr, r, r_s, arrival_mean_blocks=10.0, deadline_blocks=25.0
    )
    means = evaluate_windows(topology, scenario, windows).means
    for row, hop_windows in enumerate(windows.tolist()):
        for hop, window in enumerate(hop_windows):
            pair = topology.hop(hop)
            mean = mean_service_time(pair, window, scenario)
            assert means[row, hop] == mean
            assert mean == 1.0 + plain_sum(block_tails(pair, window - 1, scenario))


def test_deadline_probability_single_stage():
    # one queueing stage: exact exponential sojourn tail with prefactor
    assert deadline_exponent([2.0], 4.0) == pytest.approx(0.25)
    got = deadline_probability([2.0], 4.0, 6.0)
    assert got == pytest.approx((2.0 / 4.0) * math.exp(-1.5), rel=1e-12)
    # two hops still form a single half-duplex stage
    theta = 1.0 / 3.1 - 1.0 / 10.0
    got = deadline_probability([1.5, 1.6], 10.0, 5.0)
    assert got == pytest.approx((3.1 / 10.0) * math.exp(-5.0 * theta), rel=1e-12)


def test_deadline_probability_multi_stage_keeps_exponent_only():
    theta = 1.0 / 4.0 - 1.0 / 10.0
    got = deadline_probability([2.0, 2.0, 2.0, 2.0], 10.0, 20.0)  # stages 4, 4, 4
    assert got == pytest.approx(math.exp(-20.0 * theta), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([1.0, 2.0, 2.5]), st.floats(1.0, 6.0)),
        min_size=1,
        max_size=6,
    ),
    st.floats(12.5, 40.0),
    st.floats(0.0, 60.0),
)
def test_deadline_probability_is_the_smallest_stage_theta(means, arrival, deadline):
    # the exponent is the smallest stage decay rate of the scalar loop, and,
    # keyed by the bottleneck stage, the tail keeps its bits, ties included
    if len(means) == 1:
        stages = means
    else:
        stages = [a + b for a, b in zip(means, means[1:])]
    theta = min(1.0 / s - 1.0 / arrival for s in stages)
    assert deadline_exponent(means, arrival) == theta
    want = math.exp(-deadline * theta)
    if len(stages) == 1:
        want = stages[0] / arrival * want
    assert deadline_probability(means, arrival, deadline) == want


def test_deadline_validation():
    with pytest.raises(UnstableQueueError):
        deadline_exponent([2.0, 2.0], 3.9)
    with pytest.raises(UnstableQueueError):
        deadline_exponent([2.0], 2.0)  # knife-edge counts as unstable
    with pytest.raises(ValueError):
        deadline_exponent([2.0], 0.0)
    with pytest.raises(ValueError):
        deadline_probability([2.0], 10.0, -1.0)


def test_service_model_validation():
    # the per-hop means are checked where the queue model reads them
    assert deadline_exponent([1.0, 2.5], 10.0) == 1.0 / 3.5 - 1.0 / 10.0
    with pytest.raises(ValueError, match="^service model needs at least one hop$"):
        deadline_exponent([], 10.0)
    with pytest.raises(ValueError, match=r"^service means must be positive, got \(1\.0, 0\.0\)$"):
        deadline_probability([1.0, 0.0], 10.0, 5.0)
    with pytest.raises(ValueError, match=r"got \(nan,\)$"):
        deadline_exponent([math.nan], 10.0)
    # the only rule is positivity; whole-block means are >= 1 by construction
    assert deadline_exponent([0.9], 10.0) == 1.0 / 0.9 - 1.0 / 10.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        FiniteSnrScenario(0.0, 1.0)
    with pytest.raises(ValueError):
        FiniteSnrScenario(10.0, -0.1)
    with pytest.raises(ValueError):
        FiniteSnrScenario(10.0, 1.0, spatial_code_rate=0.0)
    with pytest.raises(ValueError):
        FiniteSnrScenario(10.0, 1.0, spatial_code_rate=1.5)
    with pytest.raises(ValueError):
        FiniteSnrScenario(10.0, 1.0, arrival_mean_blocks=0.0)
    with pytest.raises(ValueError):
        FiniteSnrScenario(10.0, 1.0, deadline_blocks=0.5)
    plain = FiniteSnrScenario(10.0, 1.0)
    with pytest.raises(ValueError):
        plain.require_queueing()
    lam, k = SC_20DB.require_queueing()
    assert (lam, k) == (10.0, 5.0)


def test_error_breakdown():
    br = ErrorBreakdown(0.1, 0.2, 0.1 + 0.9 * 0.2)
    assert br.p_total == pytest.approx(0.28)
    with pytest.raises(ValueError):
        ErrorBreakdown(1.2, 0.0, 1.2)
    with pytest.raises(ValueError):
        ErrorBreakdown(0.1, 0.2, 0.9)  # inconsistent total


def test_message_error_reproduces_best_allocation():
    br = message_error(T413, FixedArq([2, 3]), SC_20DB)
    assert br.p_total == pytest.approx(0.10617646, abs=1e-6)
    assert br.p_deadline == pytest.approx(0.10567015, abs=1e-6)
    assert br.p_outage == pytest.approx(5.661448e-04, rel=1e-6)
    # outage component uses the union bound, which saturates at one
    lam22 = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=2.2, deadline_blocks=5.0)
    big = message_error(T413, FixedArq([1, 1]), lam22)
    assert big.p_outage == 1.0
    assert big.p_total == 1.0


def test_message_error_requires_queueing_fields():
    with pytest.raises(ValueError):
        message_error(T413, FixedArq([2, 3]), FiniteSnrScenario(100.0, 1.0))


@pytest.mark.parametrize(
    "antennas, windows, match",
    [
        # one column for three hops would broadcast to windows (2, 2, 2)
        ([4, 1, 3, 2], [[2]], r"shape \(1, 1\) needs 3 windows a row"),
        # window 0 would index position -1, hop 1's largest-window mean
        ([4, 1, 3], [[0, 3]], r"window must be >= 1 block, got 0"),
    ],
)
def test_evaluate_windows_refuses_malformed_allocations(antennas, windows, match):
    with pytest.raises(ValueError, match=match):
        evaluate_windows(Topology(antennas), SC_20DB, np.array(windows))


def test_optimize_windows_best_split():
    opt = optimize_windows(T413, SC_20DB)
    assert opt.allocation.windows == (2, 3)
    assert max(sum(r.windows) for r in opt.table) == 5  # the default budget
    assert opt.breakdown.p_total == pytest.approx(0.10617646, abs=1e-6)
    assert opt.threshold_variant == "per_receiver"
    best_feasible = min(r.p_total for r in opt.table if r.feasible)
    assert opt.breakdown.p_total == pytest.approx(best_feasible, rel=1e-12)
    assert all(sum(r.windows) <= 5 for r in opt.table)


def test_optimize_windows_fractional_deadline_floors_budget():
    scenario = FiniteSnrScenario(
        100.0, 1.0, arrival_mean_blocks=10.0, deadline_blocks=5.7
    )
    opt = optimize_windows(scenario=scenario, topology=T413)
    assert max(sum(r.windows) for r in opt.table) == 5
    assert opt.allocation.windows == (2, 3)


def test_optimize_windows_reports_constraint_conflict():
    # Every allocation keeps each hop individually sane (1 <= mu <= lambda)
    # yet overloads the shared stage, so the failure names both families.
    tight = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=1.9, deadline_blocks=5.0)
    with pytest.raises(WindowInfeasibleError) as err:
        optimize_windows(T413, tight)
    rows = err.value.columns.rows
    assert len(rows) == 10
    assert all(not r.feasible for r in rows)
    assert all(r.constraint_conflict for r in rows)
    assert all(r.violations for r in rows)


def test_window_infeasible_error_survives_pickle():
    # a process pool, or a test runner with workers, ships exceptions
    # between processes as pickles
    tight = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=1.9, deadline_blocks=5.0)
    with pytest.raises(WindowInfeasibleError) as err:
        optimize_windows(T413, tight)
    with pytest.raises(WindowInfeasibleError) as short:
        optimize_windows(Topology([4, 1, 3, 2]), tight, budget=2)
    assert short.value.columns is None
    for raised in (err.value, short.value):
        back = pickle.loads(pickle.dumps(raised))
        assert type(back) is WindowInfeasibleError
        assert str(back) == str(raised)
        if raised.columns is None:
            assert back.columns is None
        else:
            assert back.columns.rows == raised.columns.rows


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10))
def test_compositions_are_the_filtered_cube_in_order(n_hops, budget):
    matrix = _composition_matrix(n_hops, budget)
    assert matrix.dtype == np.intp
    got = [tuple(row) for row in matrix.tolist()]
    cube = [t for t in product(range(1, budget + 1), repeat=n_hops) if sum(t) <= budget]
    assert got == cube
    assert len(got) == math.comb(budget, n_hops)


@pytest.mark.parametrize("n_hops", range(1, 8))
def test_compositions_are_the_combination_gaps(n_hops):
    for budget in range(21):
        got, want = _composition_matrix(n_hops, budget), combination_gaps(n_hops, budget)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


# float rows with the values whose sums are easy to get wrong: -0.0 beside
# 0.0, subnormals, 1e16 beside 1.0 (whose compensation is nonzero),
# negatives, overflow and infinities
_SUMMAND = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e16, 1.0, -1.0, 1e308, math.inf, -math.inf]
)
_ROWS = st.integers(1, 9).flatmap(
    lambda n: st.lists(st.lists(_SUMMAND, min_size=n, max_size=n), min_size=1, max_size=6)
)


def _same_bits(got: np.ndarray, want: list[float]) -> bool:
    want = np.array(want)
    nan = np.isnan(got) & np.isnan(want)
    return bool(((got.view(np.int64) == want.view(np.int64)) | nan).all())


@settings(max_examples=200, deadline=None)
@given(_ROWS)
def test_row_sums_are_the_builtin_sum(rows):
    # the left-to-right fold of builtin sum() before Python 3.12, on every Python
    with np.errstate(over="ignore", invalid="ignore"):
        got = _row_sums(np.array(rows))
    assert _same_bits(got, [plain_sum(row) for row in rows])


# a five-node chain at SNR 10 with windows of six blocks: Python 3.12's
# compensated sum() moves two of its hop means, and with them its deadline term
SUM_CHAIN, SUM_WINDOWS = Topology([2, 3, 2, 4, 1]), [6, 6, 6, 6]
SUM_POINT = FiniteSnrScenario(10.0, 1.0, arrival_mean_blocks=30.0, deadline_blocks=40.0)


def _whole_block_outputs() -> str:
    means = [
        mean_service_time(SUM_CHAIN.hop(i), w, SUM_POINT)
        for i, w in enumerate(SUM_WINDOWS)
    ]
    breakdown = message_error(SUM_CHAIN, FixedArq(SUM_WINDOWS), SUM_POINT)
    config = SimConfig(
        SUM_CHAIN,
        FixedArq(SUM_WINDOWS),
        ChannelAssumption.LONG_TERM_STATIC,
        SUM_POINT,
        message_count=1000,
        service_mode="markovian",
    )
    return repr((means, breakdown, config.hop_service_means()))


def test_whole_block_outputs_do_not_follow_the_builtin_sum():
    # the stand-in adds floats as Python 3.12's sum() does, on any Python
    terms = [1e16, 1.0, -1e16]
    assert compensated_builtin_sum(terms) == 1.0 != plain_sum(terms)
    want = _whole_block_outputs()
    with mock.patch.object(builtins, "sum", compensated_builtin_sum):
        got = _whole_block_outputs()
    assert got == want


# the window-search operating point (every row feasible) and a low-SNR,
# high-rate one whose rows mix feasible, conflicting and doubly violated
WINDOW_POINT = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=10.0, deadline_blocks=25.0)
MIXED_POINT = FiniteSnrScenario(1.0, 4.0, arrival_mean_blocks=4.0, deadline_blocks=25.0)


@pytest.mark.parametrize("scenario", [WINDOW_POINT, MIXED_POINT], ids=["window", "mixed"])
@pytest.mark.parametrize(
    "antennas, budget", [((4, 1, 3), 20), ((4, 1, 3, 2), 12), ((2,) * 5, 10)]
)
def test_optimize_windows_table_matches_cube_walk(antennas, budget, scenario):
    topo = Topology(list(antennas))
    got = optimize_windows(topo, scenario, budget=budget)
    want = cube_walk_optimize_windows(topo, scenario, budget=budget)
    assert len(got.table) == math.comb(budget, topo.n_hops)
    # repr spells every float exactly, so equal reprs mean equal bits in
    # windows, means, probabilities, flags and violation texts alike
    assert [repr(row) for row in got.table] == [repr(row) for row in want.table]
    assert got.allocation == want.allocation
    assert repr(got.breakdown) == repr(want.breakdown)


def test_optimize_windows_infeasible_report_matches_cube_walk():
    tight = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=1.9, deadline_blocks=5.0)
    with pytest.raises(WindowInfeasibleError) as got:
        optimize_windows(T413, tight)
    with pytest.raises(WindowInfeasibleError) as want:
        cube_walk_optimize_windows(T413, tight)
    assert str(got.value) == str(want.value)
    assert [repr(row) for row in got.value.columns.rows] == [
        repr(row) for row in want.value.table
    ]


def _search_outcome(search, topo, scenario, budget):
    """Everything a search reports, spelled with repr so equal means equal bits."""
    try:
        opt = search(topo, scenario, budget=budget)
    except CubeWalkInfeasibleError as err:
        return "infeasible", str(err), [repr(row) for row in err.table]
    except WindowInfeasibleError as err:
        return "infeasible", str(err), [repr(row) for row in err.columns.rows]
    rows = [repr(row) for row in opt.table]
    return "optimum", repr(opt.allocation), repr(opt.breakdown), rows


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1),
            st.integers(n, 10),
        )
    ),
    st.floats(-0.5, 2.0),
    st.floats(0.25, 4.0),
    st.floats(0.1, 1.1),
)
def test_optimize_windows_matches_cube_walk_on_random_chains(
    chain, log_snr, rate, log_arrival
):
    # arrival means from 1.26 to 12.6 blocks give all-feasible tables, tables
    # with conflicting or doubly violated rows, and tables with no feasible row
    antennas, budget = chain
    topo = Topology(antennas)
    scenario = FiniteSnrScenario(
        10.0**log_snr,
        rate,
        arrival_mean_blocks=10.0**log_arrival,
        deadline_blocks=float(budget),
    )
    got = _search_outcome(optimize_windows, topo, scenario, budget)
    want = _search_outcome(cube_walk_optimize_windows, topo, scenario, budget)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, 4), min_size=n, max_size=n),
            st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1),
        )
    ),
    st.floats(-0.5, 2.0),
    st.floats(0.25, 4.0),
    st.floats(0.1, 1.1),
    st.floats(1.0, 40.0),
)
def test_message_error_is_the_cube_walk_row(
    chain, log_snr, rate, log_arrival, deadline
):
    # the cube walk over a budget of sum(windows) has the allocation as one
    # of its rows; message_error must give that row's bits, and raise
    # UnstableQueueError exactly where the row is infeasible
    antennas, windows = chain
    topo = Topology(antennas)
    scenario = FiniteSnrScenario(
        10.0**log_snr,
        rate,
        arrival_mean_blocks=10.0**log_arrival,
        deadline_blocks=deadline,
    )
    try:
        table = cube_walk_optimize_windows(topo, scenario, budget=sum(windows)).table
    except WindowInfeasibleError as err:
        table = err.table
    (row,) = [row for row in table if row.windows == tuple(windows)]
    if not row.feasible:
        with pytest.raises(UnstableQueueError):
            message_error(topo, FixedArq(windows), scenario)
        return
    got = message_error(topo, FixedArq(windows), scenario)
    want = (row.p_outage, row.p_deadline, row.p_total)
    assert repr((got.p_outage, got.p_deadline, got.p_total)) == repr(want)


def test_optimize_windows_infeasible_text_lists_twenty_candidates():
    # every one of the C(12, 2) = 66 rows overloads the shared stage
    tight = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=1.9, deadline_blocks=5.0)
    with pytest.raises(WindowInfeasibleError) as err:
        optimize_windows(T413, tight, budget=12)
    assert len(err.value.columns.rows) == 66
    text = str(err.value)
    assert text.count("stage 0 occupancy") == 20
    assert "(1, 1): " in text and "(2, 9): " in text and "(2, 10): " not in text
    assert text.endswith("; and 46 more)")


def test_optimize_windows_reaches_eight_node_chain():
    # the cube walk would scan 14**7 (about 105M) tuples for these 3432 rows
    opt = optimize_windows(Topology([2] * 8), WINDOW_POINT, budget=14)
    assert len(opt.table) == math.comb(14, 7) == 3432
    assert opt.breakdown.p_total < 1.0
    assert any(row.feasible and row.windows == opt.allocation.windows for row in opt.table)


def test_optimize_windows_builds_its_table_when_first_read(monkeypatch):
    built = []

    def counting_row(*fields):
        built.append(fields)
        return CandidateRow(*fields)

    monkeypatch.setattr(finite_snr, "CandidateRow", counting_row)
    opt = optimize_windows(Topology([4, 1, 3, 2]), MIXED_POINT, budget=8)
    tight = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=1.9, deadline_blocks=5.0)
    with pytest.raises(WindowInfeasibleError) as err:
        optimize_windows(T413, tight)
    assert built == []
    table = opt.table
    assert len(built) == len(table) == math.comb(8, 3)
    assert opt.table is table
    assert len(err.value.columns.rows) == 10
    assert err.value.columns.rows is err.value.columns.rows
    assert len(built) == math.comb(8, 3) + 10
    # the columns are the table's own values, column by column
    assert [row.windows for row in table] == [tuple(w) for w in opt.columns.windows.tolist()]
    assert [row.feasible for row in table] == opt.columns.feasible.tolist()


def test_optimize_windows_refuses_budgets_past_the_row_cap(monkeypatch):
    # an explicit budget, a deadline with no budget: both are refused before
    # a single tail is computed, where the search used to run for minutes
    huge = 10**30
    with pytest.raises(ValueError) as err:
        optimize_windows(T413, SC_20DB, budget=huge)
    assert not isinstance(err.value, WindowInfeasibleError)
    assert str(err.value) == (
        f"budget {huge} over 2 hops gives more than 1000000 window allocations "
        "to enumerate"
    )
    far = FiniteSnrScenario(100.0, 1.0, arrival_mean_blocks=10.0, deadline_blocks=1e300)
    with pytest.raises(ValueError, match=f"^budget {int(1e300)} over 2 hops"):
        optimize_windows(T413, far)
    # the boundary, on a cap small enough to reach: C(5, 2) = 10 rows run,
    # C(6, 2) = 15 do not
    monkeypatch.setattr(finite_snr, "_MAX_ALLOCATIONS", 10)
    assert len(optimize_windows(T413, SC_20DB, budget=5).table) == 10
    with pytest.raises(ValueError, match="more than 10 window allocations"):
        optimize_windows(T413, SC_20DB, budget=6)


def test_finite_multiplexing_round_trip():
    snr, m_rx = 100.0, 3
    rate = 1.0 * math.log2(1.0 + m_rx * snr)
    assert finite_multiplexing(rate, m_rx, snr) == pytest.approx(1.0, rel=1e-12)
    assert finite_multiplexing(0.0, m_rx, snr) == 0.0
    with pytest.raises(ValueError):
        finite_multiplexing(-1.0, m_rx, snr)
    with pytest.raises(ValueError):
        finite_multiplexing(1.0, m_rx, 0.0)


# ---------------------------------------------------------------------------
# the process-wide tail cache


@pytest.fixture
def cold_tails():
    """The process-wide tail cache, emptied."""
    finite_snr._block_tail.cache_clear()
    return finite_snr._block_tail


@pytest.fixture
def gamma_calls(monkeypatch):
    """Every gamma tail the window search computes, counted by (shape, x)."""
    calls = Counter()
    gamma = finite_snr.regularized_lower_gamma

    def counting(shape, x):
        calls[shape, x] += 1
        return gamma(shape, x)

    monkeypatch.setattr(finite_snr, "regularized_lower_gamma", counting)
    return calls


def _assert_tails(pair, longest, asked, point):
    """_block_tails and mean_service_time at asked read the scalar tails at
    point and their left-to-right sum, or raise as the scalar tails do."""
    try:
        want = block_tails(pair, longest, point)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            _block_tails(pair, longest, asked)
        return
    assert _same_bits(np.array(_block_tails(pair, longest, asked)), want)
    mean = mean_service_time(pair, longest + 1, asked)
    assert _same_bits(np.array([mean]), [1.0 + plain_sum(want)])


_LAW_SNRS = st.one_of(
    st.floats(1e-3, 1e6),
    st.floats(1e300, 1.7976931348623157e308),  # 1 + m_rx snr can overflow
    st.floats(5e-324, 2.2250738585072014e-308, exclude_max=True),  # subnormal
)
_LAWS = st.lists(
    st.tuples(
        st.builds(AntennaPair, st.integers(1, 4), st.integers(1, 4)),
        _LAW_SNRS,
        st.one_of(st.just(0.0), st.floats(0.0, 6.0)),
        st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    ),
    min_size=1,
    max_size=3,
)
# (law index, tails asked for, SNR as np.float64)
_REQUESTS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 30), st.booleans()), min_size=1, max_size=10
)


@settings(max_examples=80, deadline=None)
@given(_LAWS, _REQUESTS)
@example([(HOP1, 100.0, 0.0, 1.0)], [(0, 5, False), (0, 9, True)])
@example(
    [(HOP2, 1e308, 2.0, 1.0), (HOP1, 1.7976931348623157e308, 40.0, 0.5)],
    [(0, 4, False), (1, 7, True), (0, 2, True)],
)
@example([(HOP1, 5e-324, 1.0, 0.3), (HOP1, 5e-324, 0.0, 0.3)], [(0, 3, False), (1, 6, True)])
@example(
    [(HOP1, 100.0, 1.0, 0.25), (HOP2, 3.0, 1.5, 1.0)],
    [(0, 12, True), (0, 4, False), (1, 20, False), (0, 30, True), (1, 3, True)],
)
def test_tail_cache_keeps_the_bits_of_the_scalar_tails(laws, requests):
    # lengths rise and fall on one law and on several; every request reads
    # the bits of the scalar tails, whether it computes them or finds them
    # cached, and an np.float64 SNR reads the tails of the equal float; a
    # subnormal SNR reads the small-SNR limit, and so does the cache
    finite_snr._block_tail.cache_clear()
    for index, longest, numpy_snr in requests:
        pair, snr, r, r_s = laws[index % len(laws)]
        point = FiniteSnrScenario(snr, r, r_s)
        asked = FiniteSnrScenario(np.float64(snr), r, r_s) if numpy_snr else point
        _assert_tails(pair, longest, asked, point)


def test_tail_cache_hands_out_copies(cold_tails):
    tails = _block_tails(HOP1, 6, SC_20DB)
    tails[0] = 0.5
    assert _block_tails(HOP1, 6, SC_20DB) == block_tails(HOP1, 6, SC_20DB)


# the corpus cases of a dmdt-finite total_window sweep of (4,1,3) at SNR 100
# over budgets 2..60 and of a deadline sweep at windows [40, 40], with the
# longest window of each; the corpus holds their tables as the search printed
# them when it rebuilt every tail per call
SWEEPS = {
    "total_window": ("finite-total-window-long", 59),
    "deadline": ("finite-deadline-long-windows", 40),
}
CORPUS_CONFIGS = {case: config for case, _, config in CASES}


@pytest.mark.parametrize(
    "name, config, longest",
    [(name, CORPUS_CONFIGS[case], longest) for name, (case, longest) in SWEEPS.items()],
)
def test_sweep_computes_each_tail_once(cold_tails, gamma_calls, name, config, longest):
    case = SWEEPS[name][0]
    for mode in ("csv", "json"):
        run = stored(*run_case("dmdt-finite", config, mode))
        assert run == golden()[f"{case}-{mode}"]
    # the CSV run computes every tail of both pairs once; the JSON run reads
    # them: 2 x 59 gamma tails for the total_window sweep, not 3,540
    assert len(gamma_calls) == 2 * longest
    assert set(gamma_calls.values()) == {1}
    assert cold_tails.cache_info().currsize == 2 * longest


def test_tail_cache_under_eight_threads(cold_tails):
    # eight threads climb one law at once, each from its own first length
    point = FiniteSnrScenario(100.0, 1.0, 0.7)
    want = block_tails(HOP1, 90, point)
    start = threading.Barrier(8)

    def climb(first: int):
        start.wait(timeout=30)
        return [(n, _block_tails(HOP1, n, point)) for n in range(first, 91, 4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            runs = list(pool.map(climb, range(1, 9), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for run in runs:
        for n, tails in run:
            assert _same_bits(np.array(tails), want[:n])
    assert cold_tails.cache_info().currsize == 90


def test_tail_cache_keeps_to_its_cap(monkeypatch):
    assert finite_snr._block_tail.cache_parameters()["maxsize"] == finite_snr._TAIL_CAP
    # a cache of 18 tails holds three laws of six
    a, b, c, d = (FiniteSnrScenario(snr, 1.0) for snr in (10.0, 100.0, 1000.0, 3.0))
    want = {point: block_tails(HOP1, 25, point) for point in (a, b, c, d)}
    cache = functools.lru_cache(maxsize=18)(finite_snr._gamma_tail)
    monkeypatch.setattr(finite_snr, "_block_tail", cache)

    def computed(point, n: int) -> int:
        """Tails computed to read n tails at point, which hold the scalar bits."""
        misses = cache.cache_info().misses
        assert _same_bits(np.array(_block_tails(HOP1, n, point)), want[point][:n])
        assert cache.cache_info().currsize <= 18
        return cache.cache_info().misses - misses

    assert [computed(point, 6) for point in (a, b, c)] == [6, 6, 6]
    # b is now the least recently used law; a fourth law evicts it, and only it
    assert [computed(point, 6) for point in (a, c)] == [0, 0]
    assert computed(d, 6) == 6
    assert [computed(point, 6) for point in (a, c, d)] == [0, 0, 0]
    assert computed(b, 6) == 6
    # a law past the cap is returned exactly, and computed in full each time
    assert computed(b, 25) == 19
    assert computed(b, 25) == 25
    assert cache.cache_info().currsize == 18
