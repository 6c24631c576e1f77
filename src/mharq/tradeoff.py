"""Point-to-point diversity-multiplexing machinery and shared protocol types.

This module holds the single-hop tradeoff curve, built once per antenna
pair with integer corners and one evaluator that dmt and the high-SNR
kernels share, and the small value types (antenna pairs, node chains,
per-hop ARQ windows) that every higher-level module shares.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Sequence

__all__ = [
    "MAX_ANTENNAS",
    "AntennaPair",
    "Topology",
    "ChannelAssumption",
    "FixedArq",
    "dmt",
]

# Desk-scale cap on antenna counts.  Every worked configuration uses <= 4;
# the cap keeps tensor grids and eigen-decompositions trivially cheap.
MAX_ANTENNAS = 8


@dataclass(frozen=True)
class AntennaPair:
    """Antenna counts at the two ends of one hop."""

    m_tx: int
    m_rx: int

    def __post_init__(self) -> None:
        for name, m in (("m_tx", self.m_tx), ("m_rx", self.m_rx)):
            if isinstance(m, bool) or not isinstance(m, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {m!r}")
            if not 1 <= m <= MAX_ANTENNAS:
                raise ValueError(f"{name} must be in [1, {MAX_ANTENNAS}], got {m}")

    @property
    def min_dim(self) -> int:
        return min(self.m_tx, self.m_rx)


@dataclass(frozen=True)
class Topology:
    """Ordered antenna counts along the node chain."""

    antennas: tuple[int, ...]

    def __init__(self, antennas: Sequence[int]) -> None:
        antennas = tuple(int(a) for a in antennas)
        if len(antennas) < 2:
            raise ValueError("a chain needs at least two nodes")
        for k, m in enumerate(antennas):
            if not 1 <= m <= MAX_ANTENNAS:
                raise ValueError(
                    f"antennas[{k}] must be in [1, {MAX_ANTENNAS}], got {m}"
                )
        object.__setattr__(self, "antennas", antennas)

    @property
    def n_nodes(self) -> int:
        return len(self.antennas)

    @property
    def n_hops(self) -> int:
        return len(self.antennas) - 1

    @cached_property
    def _hops(self) -> tuple[AntennaPair, ...]:
        # built and validated once per chain; every kernel reads its hops
        return tuple(map(AntennaPair, self.antennas, self.antennas[1:]))

    def hop(self, i: int) -> AntennaPair:
        """Hop i (0-based) as an AntennaPair."""
        if not 0 <= i < self.n_hops:
            raise IndexError(f"hop index {i} out of range for {self.n_hops} hops")
        return self._hops[i]

    def sub_topologies(self) -> tuple["Topology", ...]:
        """All contiguous three-node windows (requires >= 3 nodes)."""
        if self.n_nodes < 3:
            raise ValueError("need at least three nodes to form sub-chains")
        return self._subs

    @cached_property
    def _subs(self) -> tuple["Topology", ...]:
        # built and validated once per chain, as its hops are
        return tuple(Topology(self.antennas[i : i + 3]) for i in range(self.n_nodes - 2))


class ChannelAssumption(Enum):
    """How long one fading realization persists."""

    LONG_TERM_STATIC = "long_term"   # one draw per hop for a message's lifetime
    SHORT_TERM_STATIC = "short_term"  # fresh draw every ARQ round


@dataclass(frozen=True)
class FixedArq:
    """Per-hop retransmission windows fixed up front."""

    windows: tuple[int, ...]

    def __init__(self, windows: Sequence[int]) -> None:
        windows = tuple(int(w) for w in windows)
        if not windows:
            raise ValueError("fixed protocol needs at least one hop window")
        if any(w < 1 for w in windows):
            raise ValueError(f"windows must be >= 1, got {windows}")
        object.__setattr__(self, "windows", windows)


class _Curve:
    """The Zheng-Tse curve of one hop: its corners and one evaluator, d.

    corners holds the integer corner diversities (m_tx - k)(m_rx - k) at the
    knots k = 0..min_dim.  Between knots j and j + 1, d(s) is
    lo + (s - j) * slope on the piece's float (lo, slope), formed once: the
    form of numpy's linear interpolation, which the tests hold it to bit for
    bit.  Outside [0, min_dim] it is the end corner, as a float.
    """

    __slots__ = ("corners", "_top", "_d0", "_pieces")

    def __init__(self, pair: AntennaPair) -> None:
        c = tuple((pair.m_tx - k) * (pair.m_rx - k) for k in range(pair.min_dim + 1))
        self.corners = c
        self._top, self._d0 = pair.min_dim, float(c[0])
        self._pieces = tuple((float(lo), float(hi - lo)) for lo, hi in zip(c, c[1:]))

    def d(self, s: float) -> float:
        if s >= self._top:
            return 0.0
        if s <= 0.0:
            return self._d0
        j = int(s)
        lo, slope = self._pieces[j]
        return lo + (s - j) * slope


# each pair's curve, built once per process: 8 antennas make at most 64 pairs
_curve = cache(_Curve)


def _check_rate_scalar(r: float) -> float:
    r = float(r)
    if math.isnan(r) or r < 0.0:
        raise ValueError(f"multiplexing gain must be nonnegative, got {r!r}")
    return r


def dmt(pair: AntennaPair, r: float) -> float:
    """Optimal diversity order of a single hop at multiplexing gain r.

    The Zheng-Tse curve: piecewise linear through the corner points
    (k, (m_tx - k)(m_rx - k)) for k = 0..min(m_tx, m_rx), and zero from the
    rightmost corner on.  The high-SNR kernels read the same curve, _curve.
    """
    if not isinstance(pair, AntennaPair):
        raise TypeError("pair must be an AntennaPair")
    return _curve(pair).d(_check_rate_scalar(r))
