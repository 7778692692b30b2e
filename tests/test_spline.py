"""The package's cubic spline against scipy's CubicSpline, bit for bit (the
import it saves is checked in test_imports.py).

scipy.interpolate is imported here only as the reference: spline.cubic_spline
promises the same doubles, so every comparison is of the raw bits (so -0.0
and 0.0 differ), not a tolerance.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from isoperturb.spline import cubic_spline


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _assert_same(x, y, bc, axis, t):
    want = CubicSpline(x, y, bc_type=bc, axis=axis)(t)
    got = cubic_spline(x, y, bc, axis=axis)(t)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def _knots(rng, n, uniform):
    if uniform:
        return np.linspace(-0.7, 2.3, n)
    return np.cumsum(rng.uniform(0.05, 1.0, n)) - 1.0


def _values(rng, n, ndim, axis, periodic):
    shape = [3, 2, 4][:ndim]
    shape[axis] = n
    y = rng.normal(size=shape)
    if periodic:
        y[(slice(None),) * axis + (-1,)] = y[(slice(None),) * axis + (0,)]
    return y


@pytest.mark.parametrize("bc,n", [("not-a-knot", 2), ("not-a-knot", 3),
                                  ("not-a-knot", 4), ("not-a-knot", 9),
                                  ("not-a-knot", 33), ("periodic", 4),
                                  ("periodic", 5), ("periodic", 17),
                                  ("periodic", 48)])
@pytest.mark.parametrize("ndim,axis", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
@pytest.mark.parametrize("uniform", [True, False])
def test_spline_equals_cubicspline_bitwise(bc, n, ndim, axis, uniform):
    rng = np.random.default_rng([n, ndim, axis, uniform])
    x = _knots(rng, n, uniform)
    y = _values(rng, n, ndim, axis, bc == "periodic")
    span = x[-1] - x[0]
    # inside, at every knot and both ends, and outside on both sides (the
    # not-a-knot spline extrapolates, the periodic one wraps, over several
    # periods too)
    inside = rng.uniform(x[0], x[-1], 25)
    outside = np.array([x[0] - 1e-9, x[0] - 0.3 * span, x[-1] + 1e-9,
                        x[-1] + 0.4 * span, x[0] - 2.5 * span, x[-1] + 3.7 * span])
    for t in (inside, x, np.array([x[0], x[-1]]), outside, inside.reshape(5, 5)):
        _assert_same(x, y, bc, axis, t)
    for t in (float(inside[0]), float(x[0]), float(x[-1]), float(outside[3])):
        _assert_same(x, y, bc, axis, t)


def test_spline_keeps_signed_zeros_and_integer_input():
    # integer knots and values, exact zeros and a constant run: the port
    # must reproduce every bit, -0.0 included
    x = np.arange(6)
    y = np.array([[0, 0, 1, 1, 0, 0], [2, -1, 0, 0, 3, 2]]).T
    for bc in ("not-a-knot", "periodic"):
        _assert_same(x, y, bc, 0, np.linspace(-1.0, 6.0, 29))
    _assert_same(x[:2], y[:2], "not-a-knot", 0, np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
