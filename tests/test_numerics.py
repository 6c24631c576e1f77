import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp_special

from mharq.numerics import (
    BoxDomain,
    Interval,
    _lower_incomplete_gamma,
    minimize_box,
    regularized_lower_gamma,
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


# ---------------------------------------------------------------------------
# intervals and boxes


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError):
        Interval(-math.inf, 1.0)
    iv = Interval(0.0, math.inf)  # open-ended upper is a valid interval
    assert iv.hi == math.inf


def test_box_requires_finite_bounds():
    with pytest.raises(ValueError):
        BoxDomain([])
    with pytest.raises(ValueError):
        BoxDomain([Interval(0.0, math.inf)])
    box = BoxDomain([Interval(0.0, 1.0), Interval(-2.0, 2.0)])
    assert box.dimension == 2


# ---------------------------------------------------------------------------
# grid minimization


def test_minimize_quadratic_one_dim():
    x, v = minimize_box(lambda t: (t - 0.3) ** 2, BoxDomain([Interval(0.0, 1.0)]))
    assert abs(x[0] - 0.3) < 1e-3
    assert v < 1e-6


def test_minimize_quadratic_two_dim():
    def f(x, y):
        return (x - 0.25) ** 2 + (y + 0.75) ** 2

    x, v = minimize_box(f, BoxDomain([Interval(0.0, 1.0), Interval(-1.0, 0.0)]),
                        coarse_grid=33)
    assert abs(x[0] - 0.25) < 1e-2
    assert abs(x[1] + 0.75) < 1e-2


def test_minimize_vectorized_path_identical():
    domain = BoxDomain([Interval(0.0, 2.0)])

    def scalar(t):
        return math.sin(5.0 * t) + 0.3 * t

    def batch(pts):
        return np.sin(5.0 * pts[:, 0]) + 0.3 * pts[:, 0]

    xs, vs = minimize_box(scalar, domain)
    xv, vv = minimize_box(batch, domain, vectorized=True)
    assert np.array_equal(xs, xv)
    assert vs == vv


def test_minimize_flat_objective_takes_first_point():
    x, v = minimize_box(lambda x, y: 1.0, BoxDomain([Interval(2.0, 5.0), Interval(-1.0, 1.0)]))
    assert x[0] == 2.0 and x[1] == -1.0
    assert v == 1.0


def test_minimize_refinement_never_hurts():
    domain = BoxDomain([Interval(0.0, 3.0)])

    def wiggly(t):
        return math.sin(7.0 * t) + 0.05 * (t - 1.0) ** 2

    _, coarse = minimize_box(wiggly, domain, coarse_grid=16, refine_rounds=0)
    _, fine = minimize_box(wiggly, domain, coarse_grid=16, refine_rounds=3)
    assert fine <= coarse


@given(center=st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_minimize_finds_random_quadratic_center(center):
    x, _ = minimize_box(lambda t: (t - center) ** 2, BoxDomain([Interval(0.0, 1.0)]))
    assert abs(x[0] - center) < 1e-2


def test_minimize_rejects_bad_inputs():
    domain1 = BoxDomain([Interval(0.0, 1.0)])
    with pytest.raises(ValueError):
        minimize_box(lambda *p: p[0], BoxDomain([Interval(0.0, 1.0)] * 7))
    with pytest.raises(ValueError):
        minimize_box(lambda t: math.nan, domain1)
    with pytest.raises(ValueError):
        minimize_box(lambda t: t, domain1, coarse_grid=[8, 8])
    with pytest.raises(ValueError):
        minimize_box(lambda t: t, domain1, coarse_grid=0)
    with pytest.raises(ValueError):
        minimize_box(lambda t: t, domain1, refine_rounds=-1)
