"""Simulator determinism, accounting identities, and tail fitting."""

import dataclasses
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mharq.netsim as netsim
from mharq.cli import main
from mharq.finite_snr import (
    FiniteSnrScenario,
    _code_rate,
    _stage_means,
    mean_service_time,
)
from mharq.netsim import (
    RandomSource,
    SimConfig,
    TailFitError,
    decode_chain,
    estimate_delay_exponent,
    run_network_sim,
    validation_checks,
    validation_references,
    verdict,
)
from mharq.tradeoff import AntennaPair, ChannelAssumption, FixedArq, Topology
from oracles import (
    cumsum_decode_rounds,
    eigvalsh_capacities,
    summed_rate_capacities,
    whole_array_tandem,
)

LT = ChannelAssumption.LONG_TERM_STATIC
ST = ChannelAssumption.SHORT_TERM_STATIC


def scenario(snr=1.0, lam=10.0, deadline=60.0, r=1.0):
    return FiniteSnrScenario(
        snr, r, arrival_mean_blocks=lam, deadline_blocks=deadline
    )


def capacities(u, snr, m_tx, code_model="logdet", r_s=1.0):
    """netsim._capacities of a hop, at the rate factor of its code-model rule."""
    pair = AntennaPair(m_tx, u.shape[2])
    rate = _code_rate(pair, FiniteSnrScenario(snr, 1.0, r_s), code_model)
    return netsim._capacities(u, snr, m_tx, rate)


def config(**overrides):
    base = dict(
        topology=Topology([1, 1]),
        protocol=FixedArq([2]),
        channel=LT,
        scenario=scenario(),
        message_count=5000,
        seed=0,
        code_model="ostbc",
    )
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# randomness plumbing


def test_random_source_streams_are_stable_and_distinct():
    a = RandomSource(7).stream(3).random(16)
    b = RandomSource(7).stream(3).random(16)
    c = RandomSource(7).stream(4).random(16)
    d = RandomSource(8).stream(3).random(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(ValueError):
        RandomSource(-1)
    with pytest.raises(ValueError):
        RandomSource(2**64)


@pytest.mark.parametrize("seed", [2**63 + 1, 2**64 - 2047, 2**64 - 1])
def test_random_source_keys_every_64_bit_seed_apart(seed):
    # a float64 key would merge each seed here with its neighbour below,
    # and round 2**64 - 1 past the key's range
    draws = [RandomSource(s).stream(1).random(4) for s in (seed - 1, seed)]
    assert not np.array_equal(*draws)
    key = RandomSource(seed).stream(1).bit_generator.state["state"]["key"]
    assert key.tolist() == [seed, 1]


def test_rerun_is_bit_identical():
    cfg = config(message_count=3000)
    first = run_network_sim(cfg)
    second = run_network_sim(cfg)
    assert np.array_equal(first.delays, second.delays)
    assert first.per_hop_outage_drops == second.per_hop_outage_drops
    assert (first.delivered, first.outage_drops, first.deadline_drops) == (
        second.delivered, second.outage_drops, second.deadline_drops
    )


# rates where the decoded round count varies from message to message, so a
# chunk that saw other uniforms would move the histograms
@pytest.mark.parametrize(
    "antennas, windows, channel, code_model, r",
    [
        ((4, 4, 4), (3, 3), ST, "logdet", 2.0),
        ((4, 1, 3), (2, 3), LT, "ostbc", 1.0),
    ],
    ids=["logdet-short-444", "ostbc-long-413"],
)
def test_chunked_draws_match_one_chunk(
    monkeypatch, antennas, windows, channel, code_model, r
):
    cfg = config(
        topology=Topology(list(antennas)),
        protocol=FixedArq(list(windows)),
        channel=channel,
        scenario=scenario(snr=10.0, lam=10.0, deadline=25.0, r=r),
        message_count=1001,
        warmup_count=50,
        code_model=code_model,
    )
    sizes = []
    draw = netsim._channel_uniforms

    def recording_draw(rng, n_msgs, *shape):
        sizes.append(n_msgs)
        return draw(rng, n_msgs, *shape)

    monkeypatch.setattr(netsim, "_channel_uniforms", recording_draw)
    monkeypatch.setattr(netsim, "_CHUNK_UNIFORMS", 1 << 40)
    whole = run_network_sim(cfg)
    assert sizes == [1001] * len(windows)

    # 2400 uniforms hold 25 short-term 4x4 messages (96 uniforms each),
    # 300 long-term 4->1 messages (8) and 400 long-term 1->3 messages (6)
    sizes.clear()
    monkeypatch.setattr(netsim, "_CHUNK_UNIFORMS", 2400)
    chunked = run_network_sim(cfg)
    assert sum(sizes) == 1001 * len(windows)
    assert len(sizes) >= 3 * len(windows)
    assert len(set(sizes)) > 1  # ragged last chunk

    assert_same_result(whole, chunked)


def assert_same_result(a, b):
    assert np.array_equal(a.delays.view(np.int64), b.delays.view(np.int64))
    assert (a.delivered, a.outage_drops, a.deadline_drops) == (
        b.delivered, b.outage_drops, b.deadline_drops
    )
    assert a.per_hop_outage_drops == b.per_hop_outage_drops
    assert a.per_hop_attempts == b.per_hop_attempts
    assert len(a.round_histograms) == len(b.round_histograms)
    for x, y in zip(a.round_histograms, b.round_histograms):
        assert np.array_equal(x, y)


# physical cases run at SNR 1, where every hop drops some messages on outage
TANDEM_CASES = {
    "markov-1hop": dict(
        topology=Topology([2, 2]),
        protocol=FixedArq([2]),
        service_mode="markovian",
        service_means=(6.0,),
    ),
    "markov-4stage": dict(
        topology=Topology([2, 2, 2, 2, 2, 2]),
        protocol=FixedArq([2] * 5),
        service_mode="markovian",
        service_means=(1.0, 2.0, 1.5, 2.5, 1.0),
    ),
    "physical-1hop": dict(
        topology=Topology([1, 2]),
        protocol=FixedArq([3]),
        channel=ST,
    ),
    "physical-4stage": dict(
        topology=Topology([2, 1, 2, 2, 1, 3]),
        protocol=FixedArq([2, 3, 1, 2, 2]),
        code_model="logdet",
    ),
}


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
@pytest.mark.parametrize(
    "case, sizes",
    [
        ("markov-1hop", "edge"),
        ("markov-4stage", "inside"),
        ("physical-1hop", "inside"),
        ("physical-4stage", "edge"),
        ("markov-4stage", "single"),
        ("physical-4stage", "single"),
    ],
)
def test_chunked_tandem_matches_whole_arrays(monkeypatch, chunk, case, sizes):
    # warmup on a chunk edge or inside the second chunk; a ragged last chunk
    n_msgs, warmup = {
        "edge": (2 * chunk + 1500, chunk),
        "inside": (2 * chunk + 1500, chunk + chunk // 2 + 1),
        "single": (1, 0),
    }[sizes]
    cfg = config(
        message_count=n_msgs,
        warmup_count=warmup,
        seed=11,
        **TANDEM_CASES[case],
    )
    tandem = netsim._tandem_delays
    monkeypatch.setattr(netsim, "_tandem_delays", whole_array_tandem)
    whole = run_network_sim(cfg)
    monkeypatch.setattr(netsim, "_tandem_delays", tandem)
    monkeypatch.setattr(netsim, "_TANDEM_CHUNK", chunk)
    chunked = run_network_sim(cfg)
    assert_same_result(whole, chunked)
    if cfg.service_mode == "physical" and sizes != "single":
        assert all(chunked.per_hop_outage_drops)


@pytest.mark.parametrize("case", ["markov-4stage", "physical-4stage"])
def test_tandem_worker_is_joined(monkeypatch, case):
    # several chunks and a ragged last one, so the worker draws ahead
    monkeypatch.setattr(netsim, "_TANDEM_CHUNK", 1000)
    before = threading.active_count()
    run_network_sim(config(message_count=3500, **TANDEM_CASES[case]))
    assert threading.active_count() == before


@pytest.mark.parametrize("case", ["markov-4stage", "physical-4stage"])
def test_tandem_pipeline_under_fast_thread_switching(monkeypatch, case):
    # the worker refills one buffer set while this thread reads the other;
    # switching threads every microsecond gives a missed handoff many
    # chances to show in the bits
    cfg = config(message_count=4000, seed=5, **TANDEM_CASES[case])
    monkeypatch.setattr(netsim, "_tandem_delays", whole_array_tandem)
    whole = run_network_sim(cfg)
    monkeypatch.undo()
    monkeypatch.setattr(netsim, "_TANDEM_CHUNK", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pipelined = run_network_sim(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert_same_result(whole, pipelined)


class _ServiceFailed(RuntimeError):
    pass


@pytest.mark.parametrize("case", ["markov-4stage", "physical-4stage"])
def test_tandem_worker_exception_reaches_the_caller(monkeypatch, case):
    monkeypatch.setattr(netsim, "_TANDEM_CHUNK", 1000)
    tandem = netsim._tandem_delays
    raised = []

    def failing_tandem(*args):
        *head, fill = args

        def fail_on_second_chunk(start, stop, out):
            if start == 1000:
                raised.append(_ServiceFailed(case))
                raise raised[-1]
            fill(start, stop, out)

        return tandem(*head, fail_on_second_chunk)

    monkeypatch.setattr(netsim, "_tandem_delays", failing_tandem)
    before = threading.active_count()
    with pytest.raises(_ServiceFailed) as caught:
        run_network_sim(config(message_count=3500, **TANDEM_CASES[case]))
    assert caught.value is raised[0]
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "antennas, windows, channel, code_model",
    [
        ((2, 2), (2,), ST, "logdet"),
        ((1, 3), (3,), LT, "ostbc"),
        ((4, 1, 3), (2, 3), LT, "logdet"),
        ((2, 2, 2), (2, 2), ST, "ostbc"),
        ((2, 1, 2, 2, 1, 3), (2, 3, 1, 2, 2), ST, "logdet"),
        ((2, 1, 2, 2, 1, 3), (2, 3, 1, 2, 2), LT, "ostbc"),
    ],
    ids=["1hop-st-logdet", "1hop-lt-ostbc", "2hop-lt-logdet", "2hop-st-ostbc",
         "5hop-st-logdet", "5hop-lt-ostbc"],
)
def test_hop_workers_do_not_change_results(
    monkeypatch, antennas, windows, channel, code_model
):
    # SNR 1 drops messages on every hop; the warmup ends inside the second
    # tandem chunk, and the channel draws come in several chunks per hop
    monkeypatch.setattr(netsim, "_TANDEM_CHUNK", 1000)
    monkeypatch.setattr(netsim, "_CHUNK_UNIFORMS", 4096)
    cfg = config(
        topology=Topology(list(antennas)),
        protocol=FixedArq(list(windows)),
        channel=channel,
        scenario=scenario(snr=1.0, lam=10.0, deadline=25.0),
        message_count=3001,
        warmup_count=1500,
        seed=3,
        code_model=code_model,
    )
    n_hops = len(windows)
    assert 1 <= netsim._hop_workers(n_hops) <= n_hops
    assert netsim._hop_rounds(cfg, 0).dtype == np.uint8
    monkeypatch.setattr(netsim, "_hop_workers", lambda n: 1)
    serial = run_network_sim(cfg)
    monkeypatch.setattr(netsim, "_hop_workers", lambda n: max(2, n))
    pooled = run_network_sim(cfg)
    assert_same_result(serial, pooled)
    assert all(pooled.per_hop_outage_drops)


class _FixedUniforms:
    """Stands in for a generator whose next draws are known."""

    def __init__(self, u):
        self.u = u

    def random(self, size, out=None):
        assert size == self.u.size
        if out is None:
            return self.u.copy()
        out[...] = self.u
        return out


@pytest.mark.parametrize("mean", [1.0, 2.5, 10.0, 1e-3, 7.3])
def test_in_place_exponential_matches_formula(mean):
    u = np.concatenate(
        [RandomSource(5).stream(0).random(10_000), [0.0, np.nextafter(1.0, 0.0)]]
    )
    want = -mean * np.log1p(-u)
    got = netsim._exponential(_FixedUniforms(u), mean, u.size)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the tandem's worker draws into a buffer of its own
    out = np.full(u.size, np.nan)
    got = netsim._exponential(_FixedUniforms(u), mean, u.size, out)
    assert got is out
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_seed_changes_results():
    a = run_network_sim(config(seed=0))
    b = run_network_sim(config(seed=1))
    assert not np.array_equal(a.delays, b.delays)


# ---------------------------------------------------------------------------
# channel capacities


# every (m_rx, m_tx) up to 4x4, plus wider shapes the antenna cap allows
CAPACITY_SHAPES = [(r, t) for r in range(1, 5) for t in range(1, 5)] + [
    (5, 3), (3, 7), (6, 6), (8, 8),
]


@pytest.mark.parametrize(
    "m_rx, m_tx, rounds",
    [(r, t, n) for r, t in CAPACITY_SHAPES for n in (1, 3)],
)
def test_capacities_match_eigenvalue_oracle(m_rx, m_tx, rounds):
    rng = RandomSource(11).stream(10 * m_rx + m_tx)
    u = netsim._channel_uniforms(rng, 500, rounds, m_rx, m_tx)
    for snr in (0.5, 10.0, 1000.0):
        got = capacities(u, snr, m_tx)
        want = eigvalsh_capacities(u, snr, 1.0, m_tx, "logdet")
        assert got.shape == want.shape == (500, rounds)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        if min(m_rx, m_tx) == 1:
            # a rank-1 log-det hop is the space-time code at rate 1
            assert np.array_equal(got, eigvalsh_capacities(u, snr, 1.0, m_tx, "ostbc"))
        got = capacities(u, snr, m_tx, "ostbc", 0.75)
        want = eigvalsh_capacities(u, snr, 0.75, m_tx, "ostbc")
        assert np.array_equal(got, want)
    # roundoff at high SNR neither raises nor drives a capacity negative
    for snr in (1e6, 1e300, 1e308):
        with np.errstate(all="raise"):
            caps = capacities(u, snr, m_tx)
        assert np.isfinite(caps).all()
        assert (caps >= 0.0).all()


@pytest.mark.parametrize("m_rx, m_tx", [(2, 2), (3, 4), (4, 4), (8, 8), (6, 3)])
def test_capacities_past_the_overflowing_snr(monkeypatch, m_rx, m_tx):
    u = netsim._channel_uniforms(
        RandomSource(11).stream(10 * m_rx + m_tx), 500, 3, m_rx, m_tx
    )
    # the rank >= 2 kernel calls math.log2 only on pivots whose a * b overflows
    overflowed = []
    log2 = math.log2
    monkeypatch.setattr(math, "log2", lambda x: overflowed.append(x) or log2(x))
    caps = {}
    for snr in (1e300, 1e306, 1e308):
        overflowed.clear()
        with np.errstate(all="raise"):
            caps[snr] = capacities(u, snr, m_tx)
        # up to 1e306 every pivot fits, so it keeps the bits of 1 + a * b
        assert bool(overflowed) == (snr == 1e308)
    # past SNR 1e307 a * b overflows in the larger pivots; their log2 is
    # then log2 a + log2 b, so each of the rank pivots gains log2(1e8)
    gain = caps[1e308] - caps[1e300]
    np.testing.assert_allclose(
        gain, min(m_rx, m_tx) * log2(1e8), rtol=0.0, atol=1e-10
    )


@pytest.mark.parametrize("m_rx, m_tx, rate", [(1, 4, 1.0), (3, 1, 1.0), (2, 2, 0.75)])
def test_capacities_per_unit_snr(m_rx, m_tx, rate):
    u = netsim._channel_uniforms(RandomSource(5).stream(1), 500, 2, m_rx, m_tx)
    u[0, 0, :, :, 0] = 0.0  # ||H||^2 = 0: log1p(z) / z is 1 there
    # the rate per unit snr, in nats, is the rate in bits times ln 2 / snr;
    # at snr 1e-3 the bits lose about 1e-12 of z = snr ||H||^2 / m_tx to 1 + z
    bits = netsim._capacities(u, 1e-3, m_tx, rate)
    per_snr = netsim._capacities(u, 1e-3, m_tx, rate, per_snr=True)
    np.testing.assert_allclose(per_snr * 1e-3, bits * math.log(2.0), rtol=1e-10)
    # at a subnormal snr it is the limit rate * ||H||^2 / m_tx
    frob = -np.log1p(-u[..., 0]).sum(axis=(2, 3))
    tiny = netsim._capacities(u, 5e-324, m_tx, rate, per_snr=True)
    assert np.array_equal(tiny, rate * (frob / m_tx))
    assert tiny[0, 0] == 0.0


@pytest.mark.parametrize(
    "m_rx, m_tx, rounds",
    [(r, t, n) for r in range(1, 9) for t in range(1, 9) for n in (1, 3)],
)
def test_rate_capacities_keep_numpys_sum_bits(m_rx, m_tx, rounds):
    # below 8 entries ||H||^2 is folded over the entry columns, in numpy's
    # own order; from 8 on numpy sums in pairs, and a fold moves the bits
    u = netsim._channel_uniforms(
        RandomSource(13).stream(10 * m_rx + m_tx), 500, rounds, m_rx, m_tx
    )
    for snr in (10.0, 1e300):
        for per_snr in (False, True):
            with np.errstate(all="raise"):
                got = netsim._capacities(u, snr, m_tx, 0.75, per_snr)
            want = summed_rate_capacities(u, snr, m_tx, 0.75, per_snr)
            assert got.shape == (500, rounds)
            assert np.array_equal(got, want)


def test_simulated_drops_hold_past_the_overflowing_snr():
    drops = []
    for snr in (1e300, 1e306, 1e308):
        cfg = config(
            topology=Topology([2, 2, 2]),
            protocol=FixedArq([1, 1]),
            scenario=scenario(snr=snr, r=2.0),
            message_count=20_000,
            code_model="logdet",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drops.append(run_network_sim(cfg).per_hop_outage_drops)
    assert drops == [(19_885, 115)] * 3


def test_huge_multiplexing_gain_gives_outage_without_warning():
    # r log2(1 + snr) is near the largest float, so over a small capacity
    # the rounds needed overflow to inf, which the window caps
    cfg = config(
        topology=Topology([4, 1, 3]),
        protocol=FixedArq([2, 3]),
        scenario=FiniteSnrScenario(
            0.5, 1e308, arrival_mean_blocks=10.0, deadline_blocks=25.0
        ),
        message_count=2000,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_network_sim(cfg)
    assert result.p_outage == 1.0
    assert result.per_hop_outage_drops == (2000, 0)


@pytest.mark.parametrize("m_rx, m_tx", [(2, 2), (4, 4), (3, 5), (6, 3), (8, 8)])
def test_capacities_of_a_singular_channel_stay_finite(m_rx, m_tx):
    # three equal rows on the rank side make G singular: the exact pivots
    # after the first sit at their bound, and at high SNR roundoff would
    # push them below it or blow up the Schur steps that follow
    u = netsim._channel_uniforms(RandomSource(3).stream(1), 2000, 2, m_rx, m_tx)
    if m_rx <= m_tx:
        u[:, :, 1:3] = u[:, :, :1]
    else:
        u[:, :, :, 1:3] = u[:, :, :, :1]
    for snr in (1e6, 1e17, 1e30, 1e300):
        with np.errstate(all="raise"):
            caps = capacities(u, snr, m_tx)
        assert np.isfinite(caps).all()
        assert (caps >= 0.0).all()


HOP_SHAPES = [  # (m_rx, m_tx, channel)
    (1, 4, LT), (3, 1, LT), (2, 2, LT), (3, 4, LT), (4, 3, LT),
    (4, 4, ST), (2, 2, ST), (3, 1, ST),
]


@pytest.mark.parametrize("m_rx, m_tx, channel", HOP_SHAPES)
def test_decode_rounds_agree_with_eigenvalue_oracle(m_rx, m_tx, channel):
    # the sim-physical operating point: SNR 10, multiplexing gain 1
    snr, window = 10.0, 3
    long_term = channel is LT
    target = math.log2(1.0 + m_rx * snr)
    rng = RandomSource(5).stream(10 * m_rx + m_tx)
    u = netsim._channel_uniforms(
        rng, 20_000, 1 if long_term else window, m_rx, m_tx
    )
    got = netsim._decode_rounds(
        u,
        lambda v: capacities(v, snr, m_tx),
        target,
        window,
        long_term,
    )
    want = netsim._decode_rounds(
        u,
        lambda v: eigvalsh_capacities(v, snr, 1.0, m_tx, "logdet"),
        target,
        window,
        long_term,
    )
    assert np.array_equal(got, want)


LAZY_CASES = [  # (m_rx, m_tx, code_model, r, window)
    (4, 4, "ostbc", 1.0, 3),  # most messages need two rounds
    (4, 4, "logdet", 2.0, 3),
    (2, 2, "logdet", 1.0, 1),
    (2, 2, "logdet", 2.0, 2),  # some messages never decode
]


@pytest.mark.parametrize(
    "m_rx, m_tx, code_model, r, window",
    LAZY_CASES,
    ids=["ostbc-444-r1", "logdet-444-r2", "logdet-22-window1", "logdet-22-outage"],
)
def test_lazy_short_term_decode_matches_cumulative_sum(
    m_rx, m_tx, code_model, r, window
):
    snr, n = 10.0, 20_000
    target = r * math.log2(1.0 + m_rx * snr)
    u = netsim._channel_uniforms(
        RandomSource(9).stream(10 * m_rx + m_tx), n, window, m_rx, m_tx
    )
    sizes = []

    def capacity(v):
        sizes.append(v.shape[:2])
        return capacities(v, snr, m_tx, code_model)

    got = netsim._decode_rounds(u, capacity, target, window, False)
    want = cumsum_decode_rounds(
        capacities(u, snr, m_tx, code_model), target, window
    )
    assert np.array_equal(got, want)
    # round k is computed once, for exactly the messages rounds 1..k-1 left
    # short of the target
    assert sizes == [
        (int(np.count_nonzero(want > k)), 1)
        for k in range(window)
        if np.count_nonzero(want > k)
    ]
    counts = np.bincount(want, minlength=window + 2)
    if code_model == "ostbc":
        assert counts[2:].sum() > n // 2
    if window > 1:
        assert counts[1] > 0 and counts[2:].sum() > 0
    if r == 2.0 and window == 2:
        assert 0 < counts[window + 1] < n


# ---------------------------------------------------------------------------
# accounting


def test_conservation_three_node_chain():
    cfg = SimConfig(
        topology=Topology([4, 1, 3]),
        protocol=FixedArq([2, 3]),
        channel=LT,
        scenario=scenario(snr=100.0, lam=10.0, deadline=5.0),
        message_count=8000,
        warmup_count=500,
        seed=0,
        code_model="ostbc",
    )
    res = run_network_sim(cfg)
    assert res.analyzed == 7500
    assert res.delivered + res.outage_drops + res.deadline_drops == res.analyzed
    assert sum(res.per_hop_outage_drops) == res.outage_drops
    # every non-outage message gets a recorded end-to-end delay
    assert res.delays.size == res.analyzed - res.outage_drops
    for hist, attempts, drops, window in zip(
        res.round_histograms, res.per_hop_attempts, res.per_hop_outage_drops,
        cfg.protocol.windows,
    ):
        assert hist.size == window + 2
        assert hist.sum() == attempts
        assert hist[-1] == drops
    assert 0.0 <= res.p_total <= 1.0


def test_conservation_markovian_mode():
    cfg = SimConfig(
        topology=Topology([4, 1, 3]),
        protocol=FixedArq([2, 3]),
        channel=LT,
        scenario=scenario(snr=100.0, lam=10.0, deadline=25.0),
        message_count=6000,
        warmup_count=1000,
        seed=3,
        service_mode="markovian",
        service_means=(2.5, 2.5),
    )
    res = run_network_sim(cfg)
    assert res.analyzed == 5000
    assert res.outage_drops == 0  # markovian service never drops on outage
    assert res.per_hop_outage_drops == (0, 0)
    assert res.delays.size == res.analyzed
    assert res.delivered + res.deadline_drops == res.analyzed
    assert all(h.sum() == 0 for h in res.round_histograms)


@st.composite
def _decode_configs(draw):
    """Physical runs on 2-5 node chains of rank-1 and rank-2 hops, SNR 0.1 to 1e3."""
    antennas = draw(st.lists(st.integers(1, 2), min_size=2, max_size=5))
    n_hops = len(antennas) - 1
    n_msgs = draw(st.integers(1, 1500))
    return config(
        topology=Topology(antennas),
        protocol=FixedArq(draw(st.lists(st.integers(1, 4), min_size=n_hops, max_size=n_hops))),
        channel=draw(st.sampled_from([LT, ST])),
        scenario=scenario(snr=10.0 ** draw(st.floats(-1.0, 3.0)), lam=10.0, deadline=25.0),
        message_count=n_msgs,
        warmup_count=draw(st.sampled_from([0, n_msgs // 3])),
        seed=draw(st.integers(0, 2**64 - 1)),
        code_model=draw(st.sampled_from(["ostbc", "logdet"])),
    )


@settings(max_examples=60, deadline=None)
@given(_decode_configs())
# SNR 0.1: the first hop drops most messages, so later hops see few
@example(
    config(
        topology=Topology([2, 2, 1, 2, 1]),
        protocol=FixedArq([1, 4, 2, 3]),
        scenario=scenario(snr=0.1, lam=10.0, deadline=25.0),
        message_count=1200,
        warmup_count=400,
        code_model="logdet",
    )
)
def test_decode_stage_counts_are_the_full_runs(cfg):
    decoded = decode_chain(cfg)
    res = run_network_sim(cfg)
    assert decoded.per_hop_outage_drops == res.per_hop_outage_drops
    assert decoded.per_hop_attempts == res.per_hop_attempts
    assert (decoded.outage_drops, decoded.analyzed) == (res.outage_drops, res.analyzed)
    assert len(decoded.round_histograms) == len(res.round_histograms)
    for ours, theirs in zip(decoded.round_histograms, res.round_histograms):
        np.testing.assert_array_equal(ours, theirs)
    # each hop's histogram counts the analyzed messages that every earlier
    # hop decoded inside its window
    windows = cfg.protocol.windows
    reached = np.ones(cfg.message_count - cfg.warmup_count, dtype=bool)
    for h, hist in enumerate(decoded.round_histograms):
        hop_rounds = netsim._hop_rounds(cfg, h)[cfg.warmup_count :]
        np.testing.assert_array_equal(
            hist, np.bincount(hop_rounds[reached], minlength=windows[h] + 2)
        )
        assert hist.sum() == decoded.per_hop_attempts[h]
        assert hist[-1] == decoded.per_hop_outage_drops[h]
        reached &= hop_rounds <= windows[h]


def test_markovian_decode_stage_draws_nothing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("markovian service drew a channel")

    monkeypatch.setattr(netsim, "_hop_rounds", no_draw)
    cfg = config(
        topology=Topology([4, 1, 3]),
        protocol=FixedArq([2, 3]),
        message_count=300,
        warmup_count=100,
        service_mode="markovian",
        service_means=(2.5, 2.5),
    )
    decoded = decode_chain(cfg)
    assert (decoded.per_hop_outage_drops, decoded.per_hop_attempts) == ((0, 0), (200, 200))
    assert [h.tolist() for h in decoded.round_histograms] == [[0] * 4, [0] * 5]


def test_markovian_hop_means_default_to_whole_block_means():
    # without service_means each hop serves at its whole-block mean service
    # time; validate's analytic exponent reads the same hop_service_means
    cfg = config(
        topology=Topology([4, 1, 3]),
        protocol=FixedArq([2, 3]),
        scenario=scenario(snr=100.0, lam=10.0, deadline=25.0),
        message_count=3000,
        service_mode="markovian",
    )
    want = tuple(
        mean_service_time(cfg.topology.hop(i), w, cfg.scenario)
        for i, w in enumerate((2, 3))
    )
    assert cfg.hop_service_means() == want
    given = dataclasses.replace(cfg, service_means=(2.5, 2.5))
    assert given.hop_service_means() == (2.5, 2.5)
    derived = run_network_sim(cfg)
    spelled_out = run_network_sim(dataclasses.replace(cfg, service_means=want))
    assert np.array_equal(derived.delays, spelled_out.delays)
    assert derived.per_hop_attempts == (3000, 3000)


def test_markovian_stage_draws_from_its_own_stream():
    # stage i serves exponentials of stream 1001 + i at its _stage_means
    # mean, so a whole-array tandem fed with them gives the simulator's
    # delays bit for bit
    n_msgs = 3000
    cfg = config(message_count=n_msgs, **TANDEM_CASES["markov-4stage"])
    source = RandomSource(cfg.seed)
    stages = _stage_means(cfg.service_means)

    def fill(start, stop, out):
        for i, (mean, row) in enumerate(zip(stages, out)):
            row[:] = -mean * np.log1p(-source.stream(1001 + i).random(stop - start))

    arrival = cfg.scenario.arrival_mean_blocks
    [(_, delay)] = whole_array_tandem(source.stream(0), arrival, n_msgs, stages.size, fill)
    assert np.array_equal(run_network_sim(cfg).delays, delay)


@pytest.mark.parametrize(
    "antennas, windows",
    [([2, 2], [2]), ([4, 1, 3], [2, 3]), ([2, 3, 2, 4, 1], [2, 2, 3, 2])],
)
def test_physical_stages_pair_hops_as_the_queue_model(antennas, windows):
    # a hop serves min(rounds, window) blocks up to the hop that drops the
    # message, and none after it; the tandem's stages are the analytic queue
    # model's, _stage_means of those blocks, so a whole-array tandem fed with
    # them gives the simulator's delays bit for bit
    n_msgs, n_hops = 2000, len(windows)
    cfg = config(
        topology=Topology(antennas),
        protocol=FixedArq(windows),
        scenario=scenario(snr=10.0),
        message_count=n_msgs,
    )
    rounds = [netsim._hop_rounds(cfg, h) for h in range(n_hops)]
    over = np.column_stack([r > w for r, w in zip(rounds, windows)])
    outage_hop = np.where(over.any(axis=1), over.argmax(axis=1), n_hops)
    kept = outage_hop == n_hops
    assert 0 < kept.sum() < kept.size  # some messages are dropped, some are not
    blocks = netsim._hop_blocks(rounds, windows, outage_hop, 0, n_msgs)
    reached = np.arange(n_hops) <= outage_hop[:, None]
    served = np.minimum(np.column_stack(rounds), windows)
    assert np.array_equal(blocks, np.where(reached, served, 0))
    stages = _stage_means(blocks)

    def fill(start, stop, out):
        out[:] = stages[start:stop].T

    rng, arrival = RandomSource(cfg.seed).stream(0), cfg.scenario.arrival_mean_blocks
    [(_, delay)] = whole_array_tandem(rng, arrival, n_msgs, stages.shape[1], fill)
    assert np.array_equal(run_network_sim(cfg).delays, delay[kept])


# ---------------------------------------------------------------------------
# memory


def traced_peak(call) -> int:
    """Bytes by which the traced allocations of call() peak above their start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_physical_run_memory_per_message():
    # a byte of rounds for each of the two hops, a byte of outage hop and
    # the 8-byte returned delay; the tandem's and the channel chunks' buffers
    # come on top, and a full-length total delay would add another 8 bytes
    n_msgs = 2_000_000
    cfg = config(
        topology=Topology([4, 1, 3]),
        protocol=FixedArq([2, 3]),
        scenario=scenario(snr=3.0, deadline=25.0),
        message_count=n_msgs,
        seed=1,
    )
    assert traced_peak(lambda: run_network_sim(cfg)) <= 13 * n_msgs


def test_rank_two_capacity_chunk_working_set():
    # one chunk of _CHUNK_UNIFORMS uniforms on a long-term 2 x 2 hop is
    # 16,384 messages, 1 MiB of uniforms
    u = netsim._channel_uniforms(RandomSource(1).stream(1), 16_384, 1, 2, 2)
    peak = traced_peak(lambda: netsim._capacities(u, 10.0, 2, None))
    assert peak <= 4.5e6


# ---------------------------------------------------------------------------
# physics orderings (statistical, fixed seeds, >8 sigma separations)


def test_fresh_fading_beats_persistent_fading():
    base = dict(
        topology=Topology([1, 1]), protocol=FixedArq([2]),
        scenario=scenario(snr=1.0), message_count=20000, seed=0,
        code_model="ostbc",
    )
    persistent = run_network_sim(SimConfig(channel=LT, **base))
    fresh = run_network_sim(SimConfig(channel=ST, **base))
    # rounds with independent draws accumulate information faster
    assert fresh.p_outage < persistent.p_outage - 0.05


def test_full_capacity_beats_orthogonal_code():
    base = dict(
        topology=Topology([2, 2]), protocol=FixedArq([2]), channel=LT,
        scenario=scenario(snr=3.0), message_count=20000, seed=0,
    )
    full = run_network_sim(SimConfig(code_model="logdet", **base))
    coded = run_network_sim(SimConfig(code_model="ostbc", **base))
    assert full.p_outage < coded.p_outage - 0.003


# ---------------------------------------------------------------------------
# delay-exponent regression


def test_exponent_fit_recovers_synthetic_tail():
    rng = np.random.default_rng(12345)
    delays = rng.exponential(5.0, size=200_000)
    fit = estimate_delay_exponent(delays, np.linspace(5.0, 40.0, 8))
    assert fit.exponent == pytest.approx(0.2, rel=0.1)
    assert fit.r_squared > 0.99
    assert fit.k_used == tuple(np.linspace(5.0, 40.0, 8))
    assert len(fit.exceedance_counts) == 8
    assert fit.exceedance_counts[-1] >= 50


def test_exponent_fit_refuses_thin_tails():
    rng = np.random.default_rng(7)
    delays = rng.exponential(2.0, size=50_000)
    with pytest.raises(ValueError, match="largest usable deadline"):
        estimate_delay_exponent(delays, [5.0, 20.0, 60.0])
    with pytest.raises(ValueError, match="10000"):
        estimate_delay_exponent(delays[:500], [1.0, 2.0])
    with pytest.raises(ValueError):
        estimate_delay_exponent(delays, [5.0])
    with pytest.raises(ValueError):
        estimate_delay_exponent(delays, [5.0, 5.0])


def test_tail_fit_error_survives_pickle():
    # a process pool, or a test runner with workers, ships exceptions
    # between processes as pickles
    rng = np.random.default_rng(7)
    delays = rng.exponential(2.0, size=50_000)
    for grid, usable in (([5.0, 20.0, 60.0], 5.0), ([60.0, 70.0], None)):
        with pytest.raises(TailFitError) as err:
            estimate_delay_exponent(delays, grid)
        back = pickle.loads(pickle.dumps(err.value))
        assert type(back) is TailFitError
        assert str(back) == str(err.value)
        assert back.largest_usable == err.value.largest_usable == usable


def test_exponent_fit_refuses_tail_held_by_one_batch():
    # every exceedance of the top deadline sits in the first of 20 batches,
    # so leaving that batch out would take the log of zero
    rng = np.random.default_rng(11)
    delays = rng.exponential(1.0, size=20_000)
    delays[:60] = 100.0
    with pytest.raises(ValueError, match="largest usable deadline is 2"):
        estimate_delay_exponent(delays, [1.0, 2.0, 50.0])
    fit = estimate_delay_exponent(delays, [1.0, 2.0])  # two points, no dof left
    assert np.isfinite(fit.stderr) and fit.stderr > 0.0


def test_exponent_fit_uses_order_only_for_stderr():
    rng = np.random.default_rng(5)
    delays = rng.exponential(5.0, size=50_000)
    grid = np.linspace(5.0, 30.0, 6)
    fit = estimate_delay_exponent(delays, grid)
    shuffled = estimate_delay_exponent(rng.permutation(delays), grid)
    assert shuffled.exponent == fit.exponent
    assert shuffled.intercept == fit.intercept
    assert shuffled.exceedance_counts == fit.exceedance_counts
    assert shuffled.stderr != fit.stderr
    # sorting packs the far tail into the last batch; the fit refuses
    # rather than report a stderr for data with no arrival order left
    with pytest.raises(ValueError, match="largest usable deadline"):
        estimate_delay_exponent(np.sort(delays), grid)


@pytest.mark.parametrize(
    "antennas, means, grid",
    [
        ((4, 1, 3), (2.5, 2.5), tuple(range(10, 61, 5))),
        ((2, 2, 2, 2), (2.5, 2.5, 5.5), tuple(range(60, 241, 20))),
    ],
    ids=["relay_413", "two_stage_2222"],
)
def test_exponent_stderr_matches_spread_across_seeds(antennas, means, grid):
    # acceptance 7a/7b configs over 30 fixed seeds: the reported stderr must
    # be the size of the seed-to-seed spread of the exponent it belongs to
    fits = []
    for seed in range(30):
        res = run_network_sim(
            config(
                topology=Topology(list(antennas)),
                protocol=FixedArq([2] * (len(antennas) - 1)),
                scenario=scenario(snr=100.0, lam=10.0, deadline=25.0),
                message_count=101_000,
                warmup_count=1_000,
                seed=seed,
                service_mode="markovian",
                service_means=means,
            )
        )
        fits.append(estimate_delay_exponent(res.delays, grid))
    spread = statistics.stdev(f.exponent for f in fits)
    typical = statistics.median(f.stderr for f in fits)
    assert 0.5 <= spread / typical <= 2.0, (spread, typical)


# ---------------------------------------------------------------------------
# configuration validation


def test_sim_config_validation():
    with pytest.raises(ValueError, match="fixed-window"):
        config(protocol=(2,))
    with pytest.raises(ValueError):
        config(protocol=FixedArq([2, 3]))  # window count vs hop count
    with pytest.raises(ValueError):
        config(message_count=0)
    with pytest.raises(ValueError):
        config(message_count=100, warmup_count=100)
    with pytest.raises(ValueError):
        config(seed=-1)
    with pytest.raises(ValueError):
        config(service_mode="fluid")
    with pytest.raises(ValueError):
        config(code_model="alamouti")
    with pytest.raises(ValueError):
        config(service_means=(2.0,))  # physical mode takes no means
    with pytest.raises(ValueError):
        config(service_mode="markovian", service_means=(2.0, 2.0))
    with pytest.raises(ValueError):
        config(service_mode="markovian", service_means=(0.0,))
    with pytest.raises(ValueError):
        config(scenario=FiniteSnrScenario(1.0, 1.0))  # queueing fields required


def markov_413(arrival_mean, message_count=2000):
    return config(
        topology=Topology([4, 1, 3]),
        protocol=FixedArq([2, 3]),
        scenario=scenario(snr=100.0, lam=arrival_mean, deadline=25.0),
        message_count=message_count,
        service_mode="markovian",
    )


@pytest.mark.parametrize("arrival_mean", [1e308, 1e306])
def test_sim_config_refuses_times_past_the_largest_float(arrival_mean):
    # 2000 arrivals of mean 1e306 can sum past 1.8e308
    with pytest.raises(ValueError, match="largest float"):
        markov_413(arrival_mean)


def test_sim_config_at_half_the_time_bound_runs_without_warning():
    # n^2 53 ln 2 (1 + 2 hops) arrival mean at half the largest float, where
    # the arrival mean is the largest mean of the run
    n = 2000
    arrival = sys.float_info.max / 2 / (n * n * 53 * math.log(2.0) * 5)
    cfg = markov_413(arrival, n)
    with pytest.raises(ValueError, match="largest float"):
        markov_413(4 * arrival, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_network_sim(cfg)
    # the queue is all but empty: no message misses the deadline
    assert result.p_deadline == 0.0
    assert 1.0 <= result.delays.mean() < 10.0


# ---------------------------------------------------------------------------
# validate's checks as a library

# (SimConfig, the same run as a validate config): the corpus case
# val-physical-ostbc and a markovian two-hop chain of given stage means
VALIDATE_RUNS = [
    (
        config(),
        {
            "topology": [1, 1],
            "windows": [2],
            "snr_linear": 1.0,
            "multiplexing_gain": 1.0,
            "arrival_mean_blocks": 10.0,
            "deadline_blocks": 60.0,
            "message_count": 5000,
            "code_model": "ostbc",
            "seed": 0,
        },
    ),
    (
        config(
            topology=Topology([4, 1, 3]),
            protocol=FixedArq([2, 3]),
            scenario=scenario(snr=100.0, deadline=25.0),
            message_count=20000,
            warmup_count=500,
            seed=3,
            service_mode="markovian",
            service_means=(2.5, 2.5),
        ),
        {
            "topology": [4, 1, 3],
            "windows": [2, 3],
            "snr_linear": 100.0,
            "multiplexing_gain": 1.0,
            "arrival_mean_blocks": 10.0,
            "deadline_blocks": 25.0,
            "message_count": 20000,
            "warmup_count": 500,
            "code_model": "ostbc",
            "seed": 3,
            "service_mode": "markovian",
            "service_means": [2.5, 2.5],
        },
    ),
]
CHECK_COLUMNS = ["check", "analytic", "empirical", "samples", "sigma", "z_score", "verdict"]


@pytest.mark.parametrize("cfg, cli_config", VALIDATE_RUNS, ids=["physical", "markovian"])
def test_validation_checks_are_the_validate_rows(tmp_path, capsys, cfg, cli_config):
    rows = validation_checks(cfg, validation_references(cfg), run_network_sim(cfg))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cli_config), encoding="utf-8")
    assert main(["validate", "--config", str(path), "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)["rows"]
    assert [dict(zip(CHECK_COLUMNS, row)) for row in rows] == printed
    assert [row[-1] for row in rows] == ["ok"] * len(rows)


@pytest.mark.parametrize(
    "cfg",
    [
        config(),
        config(topology=Topology([1, 3, 1]), protocol=FixedArq([1, 2]), code_model="logdet"),
        # hop 1's rank-2 outage is above 1/2, the exact-mass branch
        config(
            topology=Topology([2, 2, 2]),
            protocol=FixedArq([1, 2]),
            scenario=scenario(snr=10.0, r=2.0),
            message_count=4000,
            code_model="logdet",
        ),
        VALIDATE_RUNS[1][0],
    ],
    ids=["ostbc", "logdet-rank-1", "logdet-rank-2", "markovian"],
)
def test_validation_cells_are_python_scalars(cfg):
    references = validation_references(cfg)
    for name, value in references:
        assert (type(name), type(value)) == (str, float), (name, value)
    for row in validation_checks(cfg, references, run_network_sim(cfg)):
        assert tuple(map(type, row)) == (str, float, float, int, float, float, str), row


def test_validation_checks_run_without_the_cli():
    src = str(Path(netsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from mharq.finite_snr import FiniteSnrScenario\n"
        "from mharq.netsim import SimConfig, run_network_sim, validation_checks, "
        "validation_references\n"
        "from mharq.tradeoff import ChannelAssumption, FixedArq, Topology\n"
        "cfg = SimConfig(Topology([1, 1]), FixedArq([2]), "
        "ChannelAssumption.LONG_TERM_STATIC, FiniteSnrScenario(1.0, 1.0, "
        "arrival_mean_blocks=10.0, deadline_blocks=60.0), 5000, code_model='ostbc')\n"
        "rows = validation_checks(cfg, validation_references(cfg), run_network_sim(cfg))\n"
        "print([row[0] for row in rows], 'mharq.cli' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.strip() == "['outage_hop_1', 'outage_total'] False"


@pytest.mark.parametrize(
    "check, expected",
    [
        ((0.1, 0.2, 0, 0.05), (math.nan, "no_samples")),
        ((0.25, 0.75, 100, 0.125), (4.0, "ok")),
        ((0.25, 0.75, 100, 0.124), (0.5 / 0.124, "mismatch")),
        ((0.0, 0.0, 100, 0.0), (0.0, "ok")),
        ((0.0, 0.01, 100, 0.0), (math.inf, "mismatch")),
    ],
)
def test_verdict_is_ok_within_four_sigma(check, expected):
    z, word = verdict(*check)
    assert word == expected[1]
    assert z == expected[0] or math.isnan(z) and math.isnan(expected[0])
