"""Release acceptance checks.

One test per criterion (sub-claims get their own letter so a red stays
narrow).  Each test prints a single verdict line before asserting, so a
``pytest -s`` run reads as a checklist; timing limits are part of the
criteria and enforced with assertions.

Numeric targets are frozen from independent derivations, not from running
the package; the simulation checks pin seed 0 and state their tolerance as
a z-band around the analytic value.
"""

import functools
import itertools
import json
import math
import time

import pytest
from scipy.special import gammainc

from mharq.asymptotic import (
    fbl_dmdt_3node,
    fixed_dmdt_3node,
    nnode_fbl_bounds,
    vbl_closed_form,
    vbl_dmdt_3node,
)
from mharq.cli import main
from mharq.finite_snr import (
    FiniteSnrScenario,
    message_error,
    optimize_windows,
)
from mharq.netsim import SimConfig, run_network_sim, estimate_delay_exponent
from mharq.tradeoff import (
    ChannelAssumption,
    FixedArq,
    Topology,
)

LT = ChannelAssumption.LONG_TERM_STATIC
RELAY_413 = Topology([4, 1, 3])

# every three-node family with a closed-form dynamic-sharing curve
CLOSED_FORM_FAMILIES = (
    [(m1, 1, m3) for m1 in range(1, 5) for m3 in range(1, 5)]
    + [(1, m, 1) for m in range(1, 5)]
    + [(2, 2, 2)]
)


def test_criterion_1_closed_form_agreement():
    t0 = time.monotonic()
    worst = 0.0
    points = 0
    for antennas in CLOSED_FORM_FAMILIES:
        topo = Topology(antennas)
        for budget in (2, 4, 8):
            for i in range(20 * budget + 1):
                r = 0.05 * i
                numeric = vbl_dmdt_3node(topo, budget, r)
                closed = vbl_closed_form(topo, budget, r)
                worst = max(worst, abs(numeric - closed))
                points += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed < 60.0
    print(
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"(max |numeric - closed| = {worst:.2e} over {points} points, "
        f"{elapsed:.2f}s)"
    )
    assert worst <= 1e-3
    assert elapsed < 60.0


@functools.lru_cache(maxsize=None)
def _relay_window_search(deadline: float):
    scenario = FiniteSnrScenario(
        100.0, 1.0, arrival_mean_blocks=10.0, deadline_blocks=deadline
    )
    t0 = time.monotonic()
    result = optimize_windows(RELAY_413, scenario)
    return result, time.monotonic() - t0


def test_criterion_2a_budget5_window_split():
    result, elapsed = _relay_window_search(5.0)
    ok = (
        result.allocation.windows == (2, 3)
        and abs(result.breakdown.p_total - 0.1057) <= 0.005
        and result.threshold_variant == "per_receiver"
        and elapsed < 30.0
    )
    print(
        f"criterion 2a: {'PASS' if ok else 'FAIL'} "
        f"(budget 5 optimum {result.allocation.windows}, total error "
        f"{result.breakdown.p_total:.6f}, variant {result.threshold_variant}, "
        f"{elapsed:.2f}s)"
    )
    assert result.allocation.windows == (2, 3)
    assert result.breakdown.p_total == pytest.approx(0.1057, abs=0.005)
    assert result.threshold_variant == "per_receiver"
    assert elapsed < 30.0


def test_criterion_2b_budget10_error_level():
    result, elapsed = _relay_window_search(10.0)
    ok = abs(result.breakdown.p_total - 0.0355) <= 0.005 and elapsed < 30.0
    print(
        f"criterion 2b: {'PASS' if ok else 'FAIL'} "
        f"(budget 10 best total error {result.breakdown.p_total:.6f}, "
        f"{elapsed:.2f}s)"
    )
    assert result.breakdown.p_total == pytest.approx(0.0355, abs=0.005)
    assert elapsed < 30.0


def _budget10_oracle():
    """Budget-10 argmin for (4,1,3), recomputed with scipy from the docs.

    Restates the objective of message_error / optimize_windows without the
    package: space-time-coded outage from scipy's regularized gamma with the
    per-receiver threshold, union bound over hops, whole-block means
    mu = 1 + sum of the outage tail, and the single-stage sojourn tail
    (mu1 + mu2) / arrival * exp(-deadline * theta).  Candidates obey the
    same two rules: every mu <= arrival mean, and a stage decay rate above
    the 1e-9 stability margin.  Returns (total error, windows).
    """
    snr, arrival, deadline = 100.0, 10.0, 10.0
    hops = ((4, 1), (1, 3))  # (m_tx, m_rx)

    def tail(hop, window):
        m_tx, m_rx = hops[hop]
        x = (m_tx / snr) * ((1.0 + m_rx * snr) ** (1.0 / window) - 1.0)
        return float(gammainc(m_tx * m_rx, x))

    best = None
    for windows in itertools.product(range(1, 10), repeat=2):
        if sum(windows) > 10:
            continue
        means = [1.0 + sum(tail(h, j) for j in range(1, w)) for h, w in enumerate(windows)]
        stage = sum(means)
        theta = 1.0 / stage - 1.0 / arrival
        if max(means) > arrival or theta <= 1e-9:
            continue
        p_out = min(sum(tail(h, w) for h, w in enumerate(windows)), 1.0)
        p_deadline = stage / arrival * math.exp(-deadline * theta)
        candidate = (p_out + (1.0 - p_out) * p_deadline, windows)
        best = candidate if best is None else min(best, candidate)
    return best


def test_criterion_2c_budget10_window_split():
    result, _ = _relay_window_search(10.0)
    best = result.allocation.windows
    oracle_total, oracle_best = _budget10_oracle()
    quoted = next(row for row in result.table if row.windows == (4, 6))
    ok = (
        best == oracle_best == (5, 5)
        and abs(result.breakdown.p_total - oracle_total) <= 1e-9 * oracle_total
    )
    print(
        f"criterion 2c: {'PASS' if ok else 'FAIL'} "
        f"(budget 10 optimum {best} at {result.breakdown.p_total:.8f}, scipy "
        f"oracle {oracle_best} at {oracle_total:.8f}; (4, 6) gives "
        f"{quoted.p_total:.8f}, "
        f"{quoted.p_total - result.breakdown.p_total:.1e} higher)"
    )
    assert oracle_best == (5, 5)
    assert best == oracle_best, (
        f"the exhaustive search returns {best} at "
        f"{result.breakdown.p_total:.8f}; recomputing the documented "
        f"objective with scipy gives {oracle_best} at {oracle_total:.8f}"
    )
    assert result.breakdown.p_total == pytest.approx(oracle_total, rel=1e-9)


def test_criterion_3_window_sweep_minimum():
    topo = Topology([2, 2])
    scenario = FiniteSnrScenario(
        10 ** 0.3, 1.0, arrival_mean_blocks=2.0, deadline_blocks=5.0
    )
    sweep = [
        message_error(topo, FixedArq([w]), scenario)
        for w in range(1, 6)
    ]
    totals = [b.p_total for b in sweep]
    outages = [b.p_outage for b in sweep]
    deadlines = [b.p_deadline for b in sweep]
    best_window = 1 + totals.index(min(totals))
    mono = all(a > b for a, b in zip(outages, outages[1:])) and all(
        a < b for a, b in zip(deadlines, deadlines[1:])
    )
    ok = best_window == 2 and abs(totals[1] - 0.4147) <= 0.01 and mono
    print(
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"(minimum total error {totals[1]:.6f} at window 2; outage falls and "
        f"deadline tail grows across windows 1..5: {mono})"
    )
    assert best_window == 2
    assert totals[1] == pytest.approx(0.4147, abs=0.01)
    assert all(a > b for a, b in zip(outages, outages[1:]))
    assert all(a < b for a, b in zip(deadlines, deadlines[1:]))


def test_criterion_4_dynamic_sharing_dominates():
    worst = math.inf
    worst_at = None
    for m1, m2, m3 in itertools.product((1, 2, 3), repeat=3):
        topo = Topology([m1, m2, m3])
        cap = min(min(m1, m2), min(m2, m3))
        for budget in (2, 3, 4):
            rates = [0.1 * i for i in range(10 * budget * cap + 1)]
            splits = [
                (w1, w2)
                for w1 in range(1, budget)
                for w2 in range(1, budget - w1 + 1)
            ]
            for r in rates:
                dynamic = vbl_dmdt_3node(topo, budget, r)
                offline = fbl_dmdt_3node(topo, budget, r, allow_zero_rounds=True)
                if dynamic - offline < worst:
                    worst, worst_at = dynamic - offline, (topo.antennas, budget, r)
                for w1, w2 in splits:
                    slack = dynamic - fixed_dmdt_3node(topo, w1, w2, r)
                    if slack < worst:
                        worst, worst_at = slack, (topo.antennas, budget, r, (w1, w2))
    ok = worst >= -1e-9
    print(
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"(smallest dominance slack {worst:.2e} at {worst_at})"
    )
    assert worst >= -1e-9


def test_criterion_5_offline_split_converges():
    cases = ((Topology([4, 1, 3]), 1.0), (Topology([2, 2, 2]), 2.0))
    summary = []
    shrinks = []
    bracket_misses = []
    for topo, rmax in cases:
        rates = [0.05 * i for i in range(int(round(rmax / 0.05)) + 1)]

        def gap(budget):
            return max(
                vbl_dmdt_3node(topo, budget, r)
                - fbl_dmdt_3node(topo, budget, r, allow_zero_rounds=True)
                for r in rates
            )

        wide, narrow = gap(2), gap(10)
        shrinks.append((topo.antennas, wide, narrow))
        summary.append(f"{topo.antennas}: gap {wide:.4f} -> {narrow:.4f}")
        for budget in (4, 6, 10):
            for r in rates:
                offline = fbl_dmdt_3node(topo, budget, r, allow_zero_rounds=True)
                lower, upper = nnode_fbl_bounds(topo, budget, r)
                if not lower - 1e-9 <= offline <= upper + 1e-9:
                    bracket_misses.append((topo.antennas, budget, r))
    ok = not bracket_misses and all(n < w for _, w, n in shrinks)
    print(f"criterion 5: {'PASS' if ok else 'FAIL'} ({'; '.join(summary)})")
    for antennas, wide, narrow in shrinks:
        assert narrow < wide, antennas
    assert not bracket_misses, bracket_misses[:5]


def _sim(topology, windows, snr, deadline, **overrides):
    base = dict(
        topology=Topology(topology),
        protocol=FixedArq(windows),
        channel=LT,
        scenario=FiniteSnrScenario(
            snr, 1.0, arrival_mean_blocks=10.0, deadline_blocks=deadline
        ),
        message_count=100_000,
        seed=0,
        code_model="ostbc",
    )
    base.update(overrides)
    return run_network_sim(SimConfig(**base))


def test_criterion_6_simulated_outage_rates():
    t0 = time.monotonic()
    checks = []
    for window, target in ((1, 0.6321), (2, 0.3390)):
        res = _sim([1, 1], [window], 1.0, 60.0)
        sigma = math.sqrt(target * (1.0 - target) / res.analyzed)
        checks.append((f"single hop w={window}", res.p_outage, target, sigma))
    relay = _sim([4, 1, 3], [2, 3], 100.0, 5.0)
    for i, target in enumerate((5.365422e-04, 2.960262e-05)):
        p_hat = relay.per_hop_outage_drops[i] / relay.analyzed
        sigma = math.sqrt(target * (1.0 - target) / relay.analyzed)
        checks.append((f"relay hop {i + 1}", p_hat, target, sigma))
    elapsed = time.monotonic() - t0
    zs = [(label, (p - t) / s) for label, p, t, s in checks]
    ok = all(abs(z) <= 3.0 for _, z in zs) and elapsed < 120.0
    detail = ", ".join(f"{label} z={z:+.2f}" for label, z in zs)
    print(f"criterion 6: {'PASS' if ok else 'FAIL'} ({detail}, {elapsed:.1f}s)")
    for label, z in zs:
        assert abs(z) <= 3.0, f"{label}: z={z:+.2f}"
    assert elapsed < 120.0


@functools.lru_cache(maxsize=None)
def _markov_fit(antennas, means, grid):
    res = _sim(
        list(antennas),
        [2] * (len(antennas) - 1),
        100.0,
        25.0,
        message_count=101_000,
        warmup_count=1_000,
        service_mode="markovian",
        service_means=means,
    )
    return estimate_delay_exponent(res.delays, grid)


def test_criterion_7a_relay_delay_exponent():
    fit = _markov_fit((4, 1, 3), (2.5, 2.5), tuple(range(10, 61, 5)))
    ok = abs(fit.exponent - 0.1) <= 0.015 and fit.exponent >= 0.1 - fit.stderr
    print(
        f"criterion 7a: {'PASS' if ok else 'FAIL'} "
        f"(fitted exponent {fit.exponent:.6f} vs analytic 0.1, "
        f"stderr {fit.stderr:.6f})"
    )
    assert fit.exponent == pytest.approx(0.1, abs=0.015)
    assert fit.exponent >= 0.1 - fit.stderr


def test_criterion_7b_two_stage_exponent_band():
    fit = _markov_fit((2, 2, 2, 2), (2.5, 2.5, 5.5), tuple(range(60, 241, 20)))
    ok = abs(fit.exponent - 0.025) <= 0.00625
    print(
        f"criterion 7b: {'PASS' if ok else 'FAIL'} "
        f"(fitted exponent {fit.exponent:.6f} vs analytic 0.025, "
        f"25% band)"
    )
    assert fit.exponent == pytest.approx(0.025, abs=0.00625)


def test_criterion_7c_two_stage_exponent_floor():
    fit = _markov_fit((2, 2, 2, 2), (2.5, 2.5, 5.5), tuple(range(60, 241, 20)))
    floor = 0.025 - fit.stderr
    ok = fit.exponent >= floor
    print(
        f"criterion 7c: {'PASS' if ok else 'FAIL'} "
        f"(fitted exponent {fit.exponent:.6f}, floor {floor:.6f} = "
        f"analytic minus batch-jackknife stderr {fit.stderr:.6f})"
    )
    assert fit.exponent >= floor, (
        f"fitted exponent {fit.exponent:.6f} sits below {floor:.6f}, more "
        f"than one batch-jackknife stderr ({fit.stderr:.6f}, 20 contiguous "
        f"batches of the arrival-ordered delays) under the analytic 0.025"
    )


def test_criterion_8_bitwise_reproducibility(tmp_path, capsys):
    payload = {
        "topology": [1, 1],
        "windows": [2],
        "snr_linear": 1.0,
        "multiplexing_gain": 1.0,
        "arrival_mean_blocks": 10.0,
        "deadline_blocks": 60.0,
        "message_count": 2000,
        "code_model": "ostbc",
        "seed": 0,
    }
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    outs = [str(tmp_path / name) for name in ("a.csv", "b.csv")]
    assert main(["simulate", "--config", str(cfg), "--out", outs[0]]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", outs[1]]) == 0
    capsys.readouterr()
    raw = [open(p, "rb").read() for p in outs]
    rerun_identical = raw[0] == raw[1]

    json_rows = []
    for args in ([], ["--seed", "0"]):
        code = main(["simulate", "--config", str(cfg), "--format", "json"] + args)
        assert code == 0
        json_rows.append(json.loads(capsys.readouterr().out)["rows"])
    ok = rerun_identical and json_rows[0] == json_rows[1]
    print(
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(rerun bytes equal: {rerun_identical})"
    )
    assert rerun_identical
    assert json_rows[0] == json_rows[1]
