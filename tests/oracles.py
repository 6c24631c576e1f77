"""Independent oracles for the single-hop tradeoff, used only by the tests.

The eigenvalue-exponent algebra (per-mode SNR exponents, their outage cost
and the multiplexing gain they support) gives a route to the diversity
curve that does not go through mharq.tradeoff.dmt, and the decoding-time
rules give the round counts that accumulated mutual information needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from mharq.tradeoff import AntennaPair


#: Sentinel for "decoding never completes" (total accumulated rate short of r).
NEVER = math.inf


def _check_rate(r: float) -> float:
    r = float(r)
    if math.isnan(r) or r < 0.0:
        raise ValueError(f"multiplexing gain must be nonnegative, got {r!r}")
    return r


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
    r = _check_rate(r)
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
    r = _check_rate(r)
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
