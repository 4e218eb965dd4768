"""Property tests for the piecewise cubics of the spiral carrier and the zoo's
gap-spline: on random strictly increasing knots, the numpy Hermite and PCHIP
pieces give the same bits as scipy's CubicHermiteSpline and PchipInterpolator,
values and first derivatives, at the knots, between them and beyond both
ends."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from besovsampling.geometry import (_derivative, _hermite_coefficients,
                                    _pchip_slopes, _piecewise_cubic)

# ties (0, +-1) reach the flat-secant and sign-change branches of PCHIP;
# values below 1e-9 are 0, as scipy's own harmonic mean overflows on
# secants near the smallest doubles
VALUES = st.one_of(st.floats(-1e3, 1e3).map(lambda v: v if abs(v) > 1e-9 else 0.0),
                   st.sampled_from([0.0, 1.0, -1.0]))


@st.composite
def knots_and_data(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    start = draw(st.floats(-100.0, 100.0))
    gaps = draw(st.lists(st.floats(1e-3, 50.0), min_size=n - 1, max_size=n - 1))
    x = start + np.concatenate([[0.0], np.cumsum(gaps)])
    if np.any(np.diff(x) <= 0):  # a gap lost to rounding at large |start|
        x = start + np.arange(n, dtype=float)
    y = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    dydx = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    frac = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1,
                                  max_size=n - 1)))
    reach = draw(st.floats(1e-3, 10.0))
    # the knots, points inside each piece, and points beyond both ends
    xi = np.concatenate([x, x[:-1] + frac * np.diff(x),
                         [x[0] - reach, x[0] - 1e-9, x[-1] + 1e-9, x[-1] + reach]])
    return x, y, dydx, xi


def assert_same_bits(ours, ref):
    assert ours.dtype == ref.dtype == np.float64
    assert ours.tobytes() == ref.tobytes(), np.max(np.abs(ours - ref))


def assert_same_spline(x, c, ref, xi):
    assert_same_bits(c, ref.c)
    assert_same_bits(_piecewise_cubic(x, c, xi), ref(xi))
    assert_same_bits(_piecewise_cubic(x, _derivative(c), xi), ref.derivative()(xi))


@settings(max_examples=200, deadline=None)
@given(knots_and_data())
def test_hermite_matches_scipy(data):
    x, y, dydx, xi = data
    assert_same_spline(x, _hermite_coefficients(x, y, dydx),
                       CubicHermiteSpline(x, y, dydx), xi)


@settings(max_examples=200, deadline=None)
@given(knots_and_data())
def test_pchip_matches_scipy(data):
    x, y, _, xi = data
    c = _hermite_coefficients(x, y, _pchip_slopes(x, y))
    assert_same_spline(x, c, PchipInterpolator(x, y), xi)
