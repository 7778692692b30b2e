"""The package's cubic spline against scipy's CubicSpline, bit for bit (the
import it saves is checked in test_imports.py).

scipy.interpolate is imported here only as the reference (and scipy.linalg's
solve_banded, for the package's port of the LAPACK solve it calls):
spline.cubic_spline promises the same doubles, so every comparison is of the raw bits (so -0.0
and 0.0 differ), not a tolerance.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from isoperturb import spline
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


def _glue_values(rng, x, columns, periodic):
    y = rng.normal(size=(len(x), columns))
    if periodic:
        y[-1] = y[0]
    return y


@pytest.mark.parametrize("bc,n,columns", [("periodic", 2049, 2), ("not-a-knot", 801, 2),
                                          ("periodic", 49, 294)])
def test_spline_equals_cubicspline_at_the_glue_shapes(bc, n, columns):
    # the glue's own systems: the circle's mesh and chart lattice (2 columns,
    # swept column by column) and the torus's mesh axis (294 columns, swept
    # row by row)
    rng = np.random.default_rng([n, columns])
    x = np.linspace(0.0, 2 * np.pi, n) if bc == "periodic" else np.linspace(-0.6, 0.6, n)
    y = _glue_values(rng, x, columns, bc == "periodic")
    t = rng.uniform(x[0] - 0.1, x[-1] + 0.1, 3 * n)
    _assert_same(x, y, bc, 0, t)
    _assert_same(x, y.T, bc, 1, t)


@pytest.mark.parametrize("bc", ["not-a-knot", "periodic"])
@pytest.mark.parametrize("columns", [2, spline._ROW_SWEEP_COLUMNS])
def test_spline_pivots_as_lapack_on_both_sweeps(bc, columns):
    # a long interval after short ones puts the larger entry below the
    # diagonal: dgtsv swaps rows there, and so must both sweeps
    x = np.array([0.0, 0.1, 0.25, 1.4, 1.5, 1.6, 2.9, 3.0, 3.05, 3.2, 4.6])
    lu, _, _ = spline._factored(bc, x.tobytes())
    assert any(swapped for swapped, _ in lu.steps)
    rng = np.random.default_rng(columns)
    y = _glue_values(rng, x, columns, bc == "periodic")
    y[2:4] = 0.0  # exact zeros, where the dl = 0 terms decide the signs
    _assert_same(x, y, bc, 0, np.concatenate([x, rng.uniform(-1.0, 5.6, 40)]))


def test_factorization_is_made_once_per_knots_and_end_condition():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.uniform(0.05, 1.0, 12))
    moved = x.copy()
    moved[5] += 0.01  # same length, other knots
    spline._factored.cache_clear()

    def made(x, bc, seed):
        y = _values(np.random.default_rng(seed), len(x), 2, 0, bc == "periodic")
        _assert_same(x, y, bc, 0, np.linspace(x[0] - 0.5, x[-1] + 0.5, 31))
        return spline._factored.cache_info().misses

    assert made(x, "not-a-knot", 0) == 1
    assert made(x, "not-a-knot", 1) == 1  # new values on the same knots
    assert made(moved, "not-a-knot", 2) == 2
    assert made(x, "periodic", 3) == 3
    assert made(x, "periodic", 4) == 3


@pytest.mark.parametrize("columns", [1, spline._ROW_SWEEP_COLUMNS])
def test_the_port_keeps_dgtsvs_zero_fill_term(columns):
    # no row swaps, so the fill-in is 0; with x[1] = +0, b[0] = -0 and
    # x[2] < 0, only dgtsv's 0 * x[2] term makes x[0] +0 and not -0
    ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    b = np.tile([[-0.0], [0.0], [-1.0]], columns)
    want = solve_banded((1, 1), ab, b)
    assert np.array_equal(_bits(spline._Tridiagonal(ab).solve(b)), _bits(want))
