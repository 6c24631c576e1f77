"""Shared numerical kernels.

Integer-shape lower incomplete gamma and a deterministic grid-refinement
minimizer over axis-aligned boxes; the minimizer serves only the finite-SNR
rate-split outage search, since the high-SNR curves enumerate their exact
candidates.  Everything here is a pure function of its inputs: no
randomness, no caching, no global state.  Repeated calls give bit-identical
results, which the sweep and acceptance machinery depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Interval",
    "BoxDomain",
    "regularized_lower_gamma",
    "minimize_box",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi].

    hi may be +inf, but BoxDomain refuses such an interval (the box
    minimizer needs finite cells).  lo must always be finite.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoint is NaN")
        if math.isinf(self.lo):
            raise ValueError("lower endpoint must be finite")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo!r} > hi={self.hi!r}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box given as one finite Interval per dimension."""

    bounds: tuple[Interval, ...]

    def __init__(self, bounds: Sequence[Interval]) -> None:
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError("box needs at least one dimension")
        for k, iv in enumerate(bounds):
            if not isinstance(iv, Interval):
                raise TypeError(f"bounds[{k}] is not an Interval")
            if math.isinf(iv.hi):
                raise ValueError(f"bounds[{k}] must be finite for a box domain")
        object.__setattr__(self, "bounds", bounds)

    @property
    def dimension(self) -> int:
        return len(self.bounds)


def _lower_incomplete_gamma(m: int, x: float) -> float:
    """Unnormalised lower incomplete gamma gamma(m, x) for integer m >= 1.

    gamma(m, x) = integral of t^(m-1) e^(-t) over [0, x]; it increases
    monotonically from 0 to (m-1)! as x grows.

    Two regimes, split at x = m.  For x >= m the upward recurrence

        gamma(m, x) = (m-1) gamma(m-1, x) - x^(m-1) e^(-x)

    seeded with gamma(1, x) = 1 - e^(-x) is stable.  For x < m the same
    recurrence cancels catastrophically (gamma(4, 0.12) comes out negative in
    doubles), so that side instead sums the Poisson-tail identity
    gamma(m, x)/(m-1)! = P{Poisson(x) >= m}, whose terms are all positive.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ValueError(f"shape must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"shape must be >= 1, got {m}")
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x!r}")
    m = int(m)
    if x == 0.0:
        return 0.0
    if x == math.inf:
        # the recurrence's x^(j-1) e^(-x) terms would be inf - inf there
        return math.gamma(m)
    if x >= m:
        acc = -math.expm1(-x)
        for j in range(2, m + 1):
            # log-space correction term avoids overflow of x**(j-1) for large x
            acc = (j - 1) * acc - math.exp((j - 1) * math.log(x) - x)
        return acc
    term = math.exp(m * math.log(x) - x - math.lgamma(m + 1))
    total = term
    k = m
    while term > total * 1e-18:
        term *= x / (k + 1)
        total += term
        k += 1
    return total * math.gamma(m)


def regularized_lower_gamma(m: int, x: float) -> float:
    """gamma(m, x) / (m-1)!, a probability in [0, 1]."""
    p = _lower_incomplete_gamma(m, x) / math.gamma(m)
    # saturation can overshoot 1 by an ulp or two
    return min(max(p, 0.0), 1.0)


def minimize_box(
    f: Callable[..., float],
    domain: BoxDomain,
    coarse_grid: int | Sequence[int] = 64,
    refine_rounds: int = 2,
    *,
    vectorized: bool = False,
) -> tuple[np.ndarray, float]:
    """Deterministic grid minimization over a box.

    Evaluates f on an inclusive tensor grid (coarse_grid points per
    dimension), then repeats refine_rounds times on the +/- one-cell window
    around the incumbent, clipped to the original box and re-gridded at the
    same point counts.  Ties on the grid go to the lowest flat index, and the
    best value ever seen is returned, so the result never regresses as rounds
    are added and is always an upper bound on the true infimum.

    Parameters
    ----------
    f : callable
        Objective.  Called as f(x1, ..., xd) on scalars, or, when
        vectorized is set, once per round with an (npoints, d) array and
        expected to return npoints values.
    coarse_grid : int or per-dimension sequence of ints
        Grid points per dimension (>= 2 for any dimension that should
        actually be searched).
    """
    if not isinstance(domain, BoxDomain):
        raise TypeError("domain must be a BoxDomain")
    dim = domain.dimension
    if dim > 6:
        raise ValueError(f"tensor grids capped at 6 dimensions, got {dim}")
    if isinstance(coarse_grid, (int, np.integer)):
        counts = [int(coarse_grid)] * dim
    else:
        counts = [int(c) for c in coarse_grid]
        if len(counts) != dim:
            raise ValueError(
                f"coarse_grid has {len(counts)} entries for {dim} dimensions"
            )
    if any(c < 1 for c in counts):
        raise ValueError(f"grid counts must be >= 1, got {counts}")
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be >= 0, got {refine_rounds}")
    counts_arr = np.asarray(counts, dtype=int)
    orig_lo = np.array([iv.lo for iv in domain.bounds], dtype=float)
    orig_hi = np.array([iv.hi for iv in domain.bounds], dtype=float)
    lo, hi = orig_lo.copy(), orig_hi.copy()

    best_x: np.ndarray | None = None
    best_v = math.inf
    for _ in range(refine_rounds + 1):
        axes = [np.linspace(lo[d], hi[d], counts_arr[d]) for d in range(dim)]
        if dim == 1:
            pts = axes[0][:, None]
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
        if vectorized:
            vals = np.asarray(f(pts), dtype=float).ravel()
            if vals.shape[0] != pts.shape[0]:
                raise ValueError(
                    f"vectorized objective returned {vals.shape[0]} values "
                    f"for {pts.shape[0]} points"
                )
        else:
            vals = np.fromiter(
                (float(f(*p)) for p in pts), dtype=float, count=pts.shape[0]
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("objective returned a non-finite value")
        idx = int(np.argmin(vals))
        if float(vals[idx]) < best_v:
            best_v = float(vals[idx])
            best_x = pts[idx].copy()
        center = pts[idx]
        cell = (hi - lo) / np.maximum(counts_arr - 1, 1)
        lo = np.maximum(orig_lo, center - cell)
        hi = np.minimum(orig_hi, center + cell)
    assert best_x is not None
    return best_x, best_v
