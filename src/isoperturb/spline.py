"""Exact cubic splines: the one interpolant of the glue and the table families.

cubic_spline builds the C^2 cubic spline through the knots (x[i], y[i]) and
returns it as a function of t.  It computes the spline of scipy's
CubicSpline bit for bit: the same tridiagonal system for the knot
derivatives, solved by the same scipy.linalg calls, the same cubic Hermite
coefficients, and the evaluation of its piecewise polynomial (half-open
intervals, the last one closed, each cubic summed from its constant term
up).  Importing scipy's interpolate package for it would also load
scipy.optimize, special, fft and spatial, which nothing else here uses.
scipy.linalg is imported by the solves that call it, so a run that builds
no spline does not load it (config.load_scenario loads it up front for the
commands that do).
"""

import numpy as np


def cubic_spline(x, y, bc_type="not-a-knot", axis=0):
    """The cubic spline through the knots x (strictly increasing, finite) and
    the finite values y, whose axis `axis` runs along x.

    bc_type is "not-a-knot" (n >= 2 knots; n = 2 is the chord, n = 3 the
    parabola) or "periodic" (n >= 4, y's last knot repeating its first).
    The returned function takes t of any shape and returns the spline's
    values with t's shape in place of `axis`.  Off [x[0], x[-1]] the
    not-a-knot spline continues its end cubics and the periodic one wraps t.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    axis %= y.ndim
    y = np.moveaxis(y, axis, 0)
    n = len(x)
    dx = np.diff(x)
    dxr = dx.reshape([n - 1] + [1] * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if n == 2:
        s = np.concatenate([slope, slope])
    elif bc_type == "periodic":
        s = _periodic_derivatives(dx, dxr, y, slope)
    elif n == 3:
        s = _parabola_derivatives(dx, dxr, y, slope)
    else:
        s = _not_a_knot_derivatives(x, dx, dxr, y, slope)
    h = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((h / dxr, (slope - s[:-1]) / dxr - h, s[:-1], y[:-1]))
    x0, period = x[0], x[-1] - x[0]

    def evaluate(t):
        t = np.asarray(t)
        shape = t.shape
        t = np.ascontiguousarray(t.ravel(), dtype=float)
        if bc_type == "periodic":
            t = x0 + (t - x0) % period
        i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
        d = (t - x[i]).reshape([len(t)] + [1] * (y.ndim - 1))
        out = 0.0 + c[3, i] + c[2, i] * d + c[1, i] * (d * d) + c[0, i] * (d * d * d)
        out = out.reshape(shape + y.shape[1:])
        # t's axes go where `axis` was, as CubicSpline returns them (a view)
        order = list(range(out.ndim))
        k = len(shape)
        return out.transpose(order[k:k + axis] + order[:k] + order[k + axis:])

    return evaluate


def _banded_system(dx, dxr, y, slope):
    """The n x n tridiagonal system (rows 1..n-2) of C^2 continuity at the
    inner knots, banded as solve_banded((1, 1), ...) reads it; rows 0 and
    n-1 are the end conditions' to fill."""
    n = len(dx) + 1
    A = np.zeros((3, n))
    b = np.empty((n,) + y.shape[1:])
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    return A, b


def _not_a_knot_derivatives(x, dx, dxr, y, slope):
    from scipy.linalg import solve_banded

    A, b = _banded_system(dx, dxr, y, slope)
    A[1, 0] = dx[1]
    A[0, 1] = x[2] - x[0]
    d = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    A[1, -1] = dx[-2]
    A[-1, -2] = x[-1] - x[-3]
    d = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    s = solve_banded((1, 1), A, b.reshape(len(b), -1), overwrite_ab=True,
                     overwrite_b=True, check_finite=False)
    return s.reshape(b.shape)


def _parabola_derivatives(dx, dxr, y, slope):
    """Three knots: both not-a-knot conditions coincide, so the spline is the
    parabola through them."""
    from scipy.linalg import solve

    A = np.zeros((3, 3))
    b = np.empty((3,) + y.shape[1:])
    A[0, 0] = A[0, 1] = A[2, 1] = A[2, 2] = 1
    A[1, 0] = dx[1]
    A[1, 1] = 2 * (dx[0] + dx[1])
    A[1, 2] = dx[0]
    b[0] = 2 * slope[0]
    b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
    b[2] = 2 * slope[1]
    s = solve(A, b.reshape(3, -1), overwrite_a=True, overwrite_b=True,
              check_finite=False)
    return s.reshape(b.shape)


def _periodic_derivatives(dx, dxr, y, slope):
    """Knot n-1 is knot 0, so n-1 unknowns in a cyclic system: the (n-2) x
    (n-2) tridiagonal block is solved for the right side and for the corner
    column, and the last unknown follows from the last row."""
    from scipy.linalg import solve_banded

    n = len(dx) + 1
    A, b = _banded_system(dx, dxr, y, slope)
    A = A[:, :-1]
    A[1, 0] = 2 * (dx[-1] + dx[0])
    A[0, 1] = dx[-1]
    b = b[:-1]
    b[0] = 3 * (dxr[0] * slope[-1] + dxr[-1] * slope[0])
    b[-1] = 3 * (dxr[-1] * slope[-2] + dxr[-2] * slope[-1])
    Ac, b1 = A[:, :-1], b[:-1]
    b2 = np.zeros_like(b1)
    b2[0] = -dx[0]
    b2[-1] = -dx[-3]
    m = len(b1)
    s1 = solve_banded((1, 1), Ac, b1.reshape(m, -1), overwrite_ab=False,
                      overwrite_b=False, check_finite=False).reshape(b1.shape)
    s2 = solve_banded((1, 1), Ac, b2.reshape(m, -1), overwrite_ab=False,
                      overwrite_b=False, check_finite=False).reshape(b2.shape)
    s_last = ((b[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1])
              / (2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    s = np.empty((n,) + y.shape[1:])
    s[:-2] = s1 + s_last * s2
    s[-2] = s_last
    s[-1] = s[0]
    return s
