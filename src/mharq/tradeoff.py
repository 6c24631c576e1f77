"""Point-to-point diversity-multiplexing machinery and shared protocol types.

This module holds the single-hop tradeoff curve and the small value types
(antenna pairs, node chains, per-hop ARQ windows) that every higher-level
module shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

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
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
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

    def hop(self, i: int) -> AntennaPair:
        """Hop i (0-based) as an AntennaPair."""
        if not 0 <= i < self.n_hops:
            raise IndexError(f"hop index {i} out of range for {self.n_hops} hops")
        return AntennaPair(self.antennas[i], self.antennas[i + 1])

    def sub_topologies(self) -> tuple["Topology", ...]:
        """All contiguous three-node windows (requires >= 3 nodes)."""
        if self.n_nodes < 3:
            raise ValueError("need at least three nodes to form sub-chains")
        return tuple(
            Topology(self.antennas[i : i + 3]) for i in range(self.n_nodes - 2)
        )


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


def _check_rate(r) -> np.ndarray:
    arr = np.asarray(r, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise ValueError(f"multiplexing gain must be nonnegative, got {r!r}")
    return arr


def dmt(pair: AntennaPair, r, *, power_exponent: float = 1.0):
    """Optimal diversity order of a single hop at multiplexing gain r.

    The piecewise-linear curve through the corner points
    (k, (m_tx - k)(m_rx - k)) for k = 0..min(m_tx, m_rx); zero from the
    rightmost corner on.  Accepts a scalar or an array of gains.

    power_exponent scales the per-round transmit-energy budget: with budget g
    the curve becomes g * d(r / g), which reduces to the plain curve at
    g = 1.
    """
    if not isinstance(pair, AntennaPair):
        raise TypeError("pair must be an AntennaPair")
    if not power_exponent >= 1.0:
        raise ValueError(f"power exponent must be >= 1, got {power_exponent}")
    rr = _check_rate(r) / power_exponent
    k = np.arange(pair.min_dim + 1, dtype=float)
    corners = (pair.m_tx - k) * (pair.m_rx - k)
    # a huge power_exponent overflows to inf here, which callers refuse
    with np.errstate(over="ignore"):
        d = power_exponent * np.interp(rr, k, corners)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(d)
    return d
