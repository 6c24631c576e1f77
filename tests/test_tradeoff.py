"""Single-hop tradeoff curves, decoding times, and the shared value types."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mharq.tradeoff import AntennaPair, FixedArq, Topology, dmt
from oracles import (
    NEVER,
    ExponentSchedule,
    ExponentVector,
    capacity_exponent,
    decoding_time_blockwise,
    decoding_time_continuous,
    exponent_cost,
)


@pytest.mark.parametrize(
    "r, expected",
    [(0.0, 4.0), (0.5, 2.5), (1.0, 1.0), (1.5, 0.5), (2.0, 0.0), (3.0, 0.0)],
)
def test_dmt_square_pair_knots(r, expected):
    assert dmt(AntennaPair(2, 2), r) == pytest.approx(expected)


def test_dmt_swap_symmetry():
    pair = AntennaPair(4, 1)
    for r in np.linspace(0.0, 1.0, 11):
        assert dmt(pair, float(r)) == dmt(AntennaPair(pair.m_rx, pair.m_tx), float(r))


def test_dmt_nonincreasing_and_convex():
    pair = AntennaPair(3, 3)
    d = np.array([dmt(pair, float(r)) for r in np.linspace(0.0, 3.0, 301)])
    diffs = np.diff(d)
    assert np.all(diffs <= 1e-12)
    # Piecewise-linear in r with slopes that only ever get shallower.
    assert np.all(np.diff(diffs) >= -1e-9)


@given(
    m_tx=st.integers(min_value=1, max_value=4),
    m_rx=st.integers(min_value=1, max_value=4),
    r=st.floats(min_value=0.0, max_value=4.0),
    g=st.floats(min_value=1.0, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_dmt_more_energy_never_hurts(m_tx, m_rx, r, g):
    # power exponent g turns the curve into g * d(r / g), which never
    # falls below d(r)
    pair = AntennaPair(m_tx, m_rx)
    assert g * dmt(pair, r / g) >= dmt(pair, r) - 1e-12


def test_dmt_rejects_bad_inputs():
    pair = AntennaPair(2, 2)
    with pytest.raises(TypeError, match="pair must be an AntennaPair"):
        dmt((2, 2), 1.0)
    with pytest.raises(ValueError, match="nonnegative, got -0.5"):
        dmt(pair, -0.5)
    with pytest.raises(ValueError, match="multiplexing gain must be nonnegative"):
        dmt(pair, math.nan)


@pytest.mark.parametrize("pair", [AntennaPair(2, 2), AntennaPair(3, 1)])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 1.0, 1.4])
def test_dmt_agrees_with_exponent_search(pair, r):
    # Independent route: minimize the outage cost over ordered eigenmode
    # exponents whose supported rate exponent stays at or below r.
    if r > pair.min_dim:
        pytest.skip("past the curve's support")
    step = 0.01
    levels = np.arange(0.0, 2.0 + step / 2, step)
    best = math.inf
    if pair.min_dim == 1:
        for a in levels:
            if capacity_exponent([a]) <= r + 1e-12:
                best = min(best, exponent_cost(pair, [a]))
    else:
        for a1 in levels:
            for a2 in levels[levels <= a1 + 1e-12]:
                if capacity_exponent([a1, a2]) <= r + 1e-12:
                    best = min(best, exponent_cost(pair, [a1, a2]))
    assert best == pytest.approx(dmt(pair, r), abs=0.05)


def test_exponent_cost_weights():
    # Weight 2j + 1 + |m_tx - m_rx| on mode j, weakest mode first.
    assert exponent_cost(AntennaPair(2, 2), [1.0, 0.0]) == pytest.approx(1.0)
    assert exponent_cost(AntennaPair(2, 2), [0.0, 0.0]) == 0.0
    assert exponent_cost(AntennaPair(2, 2), [1.0, 1.0]) == pytest.approx(4.0)
    assert exponent_cost(AntennaPair(3, 1), [1.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        exponent_cost(AntennaPair(2, 2), [1.0])


def test_capacity_exponent_modes_switch_off():
    assert capacity_exponent([0.0, 0.0]) == pytest.approx(2.0)
    assert capacity_exponent([1.0, 0.5]) == pytest.approx(0.5)
    # A mode decaying faster than the power budget contributes nothing.
    assert capacity_exponent([5.0, 0.0], power_exponent=2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        capacity_exponent([-0.1])


@pytest.mark.parametrize(
    "S, r, expected",
    [
        ([1.0, 1.0, 1.0], 2.5, 3),
        ([1.0, 1.0, 1.0], 3.0, 3),
        ([1.0, 1.0, 1.0], 0.0, 1),
        ([2.0], 1.5, 1),
        ([0.5, 0.5], 2.0, NEVER),
    ],
)
def test_decoding_time_blockwise(S, r, expected):
    assert decoding_time_blockwise(S, r) == expected


@pytest.mark.parametrize(
    "S, r, expected",
    [
        ([2.0], 1.0, 0.5),
        ([2.0], 0.0, 0.0),
        ([1.0, 3.0], 2.0, 4.0 / 3.0),
        ([1.0, 1.0], 2.0, 2.0),
        ([0.5, 0.5], 2.0, NEVER),
    ],
)
def test_decoding_time_continuous(S, r, expected):
    assert decoding_time_continuous(S, r) == pytest.approx(expected)


def test_decoding_time_rejects_bad_inputs():
    with pytest.raises(ValueError):
        decoding_time_blockwise([1.0], -0.1)
    with pytest.raises(ValueError):
        decoding_time_blockwise([-1.0, 1.0], 0.5)
    with pytest.raises(ValueError):
        decoding_time_continuous([-1.0], 0.5)


@given(
    S=st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=6),
    r=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_decoding_time_continuous_vs_blockwise(S, r):
    block = decoding_time_blockwise(S, r)
    cont = decoding_time_continuous(S, r)
    if block == NEVER:
        assert cont == NEVER
    else:
        assert cont <= block + 1e-9
        assert block <= cont + 1.0 + 1e-9


def test_antenna_pair_validation():
    with pytest.raises(ValueError):
        AntennaPair(0, 2)
    with pytest.raises(ValueError):
        AntennaPair(2, 9)
    with pytest.raises(ValueError):
        AntennaPair(True, 2)
    with pytest.raises(ValueError):
        AntennaPair(1.5, 2)
    with pytest.raises(ValueError):
        AntennaPair(np.bool_(True), 2)
    pair = AntennaPair(3, 2)
    assert pair.min_dim == 2
    assert AntennaPair(np.int64(3), np.int32(2)).min_dim == 2


def test_import_leaves_numpy_unloaded():
    # the high-SNR curves compute in plain floats, so importing them loads
    # no numpy
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, mharq.asymptotic; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.strip() == "False"


def test_exponent_vector_validation():
    vec = ExponentVector([2.0, 1.0, 1.0])
    assert len(vec) == 3
    with pytest.raises(ValueError):
        ExponentVector([])
    with pytest.raises(ValueError):
        ExponentVector([1.0, -0.5])
    with pytest.raises(ValueError):
        ExponentVector([1.0, 2.0])
    # The unordered escape hatch accepts the same values.
    assert ExponentVector([1.0, 2.0], ordered=False).alpha == (1.0, 2.0)


def test_exponent_schedule_validation():
    sched = ExponentSchedule([ExponentVector([1.0, 0.5]), ExponentVector([0.3, 0.3])])
    assert sched.rounds == 2
    with pytest.raises(ValueError):
        ExponentSchedule([])
    with pytest.raises(TypeError):
        ExponentSchedule([(1.0, 0.5)])
    with pytest.raises(ValueError):
        ExponentSchedule([ExponentVector([1.0]), ExponentVector([1.0, 0.5])])
    with pytest.raises(ValueError):
        ExponentSchedule([ExponentVector([1.0, 2.0], ordered=False)])


def test_topology_accessors():
    topo = Topology([4, 1, 3, 1])
    assert topo.n_nodes == 4
    assert topo.n_hops == 3
    assert topo.hop(0) == AntennaPair(4, 1)
    assert [topo.hop(i) for i in range(3)] == [AntennaPair(4, 1), AntennaPair(1, 3), AntennaPair(3, 1)]
    subs = topo.sub_topologies()
    assert subs == (Topology([4, 1, 3]), Topology([1, 3, 1]))
    # the sub-chains are built once per chain
    assert topo.sub_topologies() is subs
    with pytest.raises(IndexError):
        topo.hop(3)


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology([4])
    with pytest.raises(ValueError):
        Topology([4, 0, 3])
    with pytest.raises(ValueError):
        Topology([2, 2]).sub_topologies()


def test_protocol_validation():
    assert FixedArq([2, 3]).windows == (2, 3)
    with pytest.raises(ValueError):
        FixedArq([])
    with pytest.raises(ValueError):
        FixedArq([2, 0])
