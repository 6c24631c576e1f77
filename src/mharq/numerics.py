"""Shared numerical kernels.

Integer-shape lower incomplete gamma, of one x or an array, and a
grid-refinement minimizer over the unit box that nothing in the package
calls: it stays only because the benchmark's layer list traces it.
Everything here is a pure function of its inputs: no randomness, no
caching, no global state.  Repeated calls give bit-identical results, which
the sweep and acceptance machinery depends on.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "regularized_lower_gamma",
    "regularized_lower_gammas",
    "minimize_box",
]


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


def regularized_lower_gammas(x: np.ndarray, top: int) -> np.ndarray:
    """regularized_lower_gamma(s, x) for s = 1..top in row s - 1, x a 1-D array.

    For finite x >= 0, row top is 1 - e^-x sum_{j<top} x^j / j! where that
    is at least 1/2, else its series e^-x sum_{j>=top} x^j / j!, and row
    s - 1 is row s plus e^-x x^s / s!: every term is nonnegative.
    """
    terms = np.cumprod(np.vstack([np.exp(-x), x / np.arange(1.0, top + 1)[:, None]]), axis=0)
    last = 1.0 - terms[:-1].sum(axis=0)
    near = last < 0.5  # so x < top, and 40 + 4 top series terms leave < 1e-17
    ratios = x[near] / np.arange(top + 1.0, 5 * top + 41)[:, None]
    last[near] = terms[top][near] * (1.0 + np.cumprod(ratios, axis=0).sum(axis=0))
    return np.vstack([last + np.cumsum(terms[top - 1 : 0 : -1], axis=0)[::-1], last])


def minimize_box(
    f: Callable[..., float],
    dim: int,
    coarse_grid: int,
    *,
    vectorized: bool = False,
) -> tuple[np.ndarray, float]:
    """Deterministic grid minimization over the unit box [0, 1]^dim.

    Evaluates f on an inclusive tensor grid of coarse_grid points per
    dimension, then twice more on the +/- one-cell window around the
    incumbent, clipped to the unit box and re-gridded at the same count.
    Ties go to the lowest flat index, and the best value ever seen is
    returned, an upper bound on the true infimum.

    f is called as f(x1, ..., xd) on scalars, or, when vectorized is set,
    once per round with an (npoints, dim) array, returning npoints values.
    Nothing in the package calls it; it stays while the benchmark's layer list names it.
    """
    if coarse_grid < 1:
        raise ValueError(f"grid count must be >= 1, got {coarse_grid}")
    lo, hi = np.zeros(dim), np.ones(dim)
    best_x: np.ndarray | None = None
    best_v = math.inf
    for _ in range(3):
        axes = [np.linspace(lo[d], hi[d], coarse_grid) for d in range(dim)]
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
        cell = (hi - lo) / max(coarse_grid - 1, 1)
        lo = np.maximum(0.0, center - cell)
        hi = np.minimum(1.0, center + cell)
    assert best_x is not None
    return best_x, best_v
