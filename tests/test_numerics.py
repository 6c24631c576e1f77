import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special

from mharq.numerics import (
    _lower_incomplete_gamma,
    minimize_box,
    regularized_lower_gamma,
    regularized_lower_gammas,
)


# ---------------------------------------------------------------------------
# incomplete gamma


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12])
def test_regularized_gamma_matches_scipy(m):
    for x in np.logspace(-6, 3, 40):
        ours = regularized_lower_gamma(m, float(x))
        ref = float(sp_special.gammainc(m, x))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-300)


@given(m=st.integers(min_value=1, max_value=10),
       x=st.floats(min_value=0.0, max_value=80.0))
@settings(max_examples=200, deadline=None)
def test_regularized_gamma_agrees_everywhere(m, x):
    ours = regularized_lower_gamma(m, x)
    assert 0.0 <= ours <= 1.0
    assert ours == pytest.approx(float(sp_special.gammainc(m, x)), rel=1e-9, abs=1e-280)


def test_small_argument_stays_positive():
    # the upward recurrence cancels catastrophically here; the series path must not
    value = _lower_incomplete_gamma(4, 0.12)
    assert value > 0.0
    assert value == pytest.approx(float(sp_special.gammainc(4, 0.12)) * math.gamma(4), rel=1e-10)


def test_large_argument_saturates_at_factorial():
    assert _lower_incomplete_gamma(5, 700.0) == pytest.approx(24.0, rel=1e-12)
    assert regularized_lower_gamma(5, 700.0) == 1.0


@pytest.mark.parametrize("m", [1, 4, 16, 64])
def test_infinite_argument_is_the_full_integral(m):
    # the recurrence's x^(j-1) e^(-x) terms are inf - inf at x = inf
    assert _lower_incomplete_gamma(m, math.inf) == math.gamma(m)
    assert regularized_lower_gamma(m, math.inf) == 1.0


def test_gamma_rejects_bad_shape_and_argument():
    with pytest.raises(ValueError):
        _lower_incomplete_gamma(0, 1.0)
    with pytest.raises(ValueError):
        _lower_incomplete_gamma(-2, 1.0)
    with pytest.raises(ValueError):
        _lower_incomplete_gamma(True, 1.0)
    with pytest.raises(ValueError):
        _lower_incomplete_gamma(3, -0.5)
    with pytest.raises(ValueError):
        _lower_incomplete_gamma(3, math.nan)


def test_gamma_monotone_in_argument():
    xs = np.linspace(0.0, 30.0, 200)
    vals = [regularized_lower_gamma(4, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("top", [1, 2, 3, 9, 20])
def test_regularized_gammas_match_scipy_in_every_row(top):
    # every shape 1..top at once, from x = 0 past the switch to the series at
    # P(top, x) = 1/2 and on to where e^-x underflows
    x = np.concatenate([[0.0, 1e-300, 1e-10], np.geomspace(1e-3, 1e3, 200), [1e300]])
    got = regularized_lower_gammas(x, top)
    want = sp_special.gammainc(np.arange(1, top + 1)[:, None], x)
    assert got.shape == (top, x.size)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-300)
    # a larger shape never gives a larger probability
    assert (np.diff(got, axis=0) <= 0.0).all() and (got >= 0.0).all() and (got <= 1.0).all()


@given(s=st.integers(1, 12), x=st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_regularized_gammas_agree_with_the_scalar(s, x):
    # two independent algorithms for one value: the relative gap stays at
    # roundoff, on the lower tail as near 1
    got = regularized_lower_gammas(np.array([x]), s)[s - 1, 0]
    assert got == pytest.approx(regularized_lower_gamma(s, x), rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# grid minimization over the unit box


def test_minimize_quadratic_one_dim():
    x, v = minimize_box(lambda t: (t - 0.3) ** 2, 1, 64)
    assert abs(x[0] - 0.3) < 1e-3
    assert v < 1e-6


def test_minimize_quadratic_two_dim():
    def f(x, y):
        return (x - 0.25) ** 2 + (y - 0.75) ** 2

    x, v = minimize_box(f, 2, 33)
    assert abs(x[0] - 0.25) < 1e-2
    assert abs(x[1] - 0.75) < 1e-2


def test_minimize_vectorized_path_identical():
    def scalar(t):
        return math.sin(10.0 * t) + 0.6 * t

    def batch(pts):
        return np.sin(10.0 * pts[:, 0]) + 0.6 * pts[:, 0]

    xs, vs = minimize_box(scalar, 1, 64)
    xv, vv = minimize_box(batch, 1, 64, vectorized=True)
    assert np.array_equal(xs, xv)
    assert vs == vv


def test_minimize_flat_objective_takes_first_point():
    x, v = minimize_box(lambda x, y: 1.0, 2, 64)
    assert x[0] == 0.0 and x[1] == 0.0
    assert v == 1.0


def test_minimize_refinement_never_hurts():
    def wiggly(t):
        return math.sin(21.0 * t) + 0.45 * (t - 1.0 / 3.0) ** 2

    seen = []

    def recorded(t):
        seen.append(wiggly(t))
        return seen[-1]

    _, best = minimize_box(recorded, 1, 16)
    # the first 16 points are the coarse grid; the refinements only add to it
    assert len(seen) == 48
    assert best == min(seen) <= min(seen[:16])


@pytest.mark.parametrize("corner", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
def test_minimize_keeps_refinement_windows_inside_the_unit_box(corner):
    def at_corner(pts):
        assert np.all((pts >= 0.0) & (pts <= 1.0)), "point outside the unit box"
        return np.abs(pts - np.asarray(corner)).sum(axis=1)

    x, v = minimize_box(at_corner, 2, 5, vectorized=True)
    assert tuple(x) == corner and v == 0.0


@given(center=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_minimize_finds_random_quadratic_center(center):
    x, _ = minimize_box(lambda t: (t - center) ** 2, 1, 64)
    assert abs(x[0] - center) < 1e-2


def test_minimize_rejects_bad_inputs():
    with pytest.raises(ValueError, match="non-finite"):
        minimize_box(lambda t: math.nan, 1, 64)
    with pytest.raises(ValueError, match="grid count"):
        minimize_box(lambda t: t, 1, 0)
    with pytest.raises(ValueError, match="returned 1 values"):
        minimize_box(lambda pts: np.zeros(1), 1, 8, vectorized=True)
