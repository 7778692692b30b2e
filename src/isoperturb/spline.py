"""Exact cubic splines: the one interpolant of the glue and the table families.

cubic_spline builds the C^2 cubic spline through the knots (x[i], y[i]) and
returns it as a function of t.  It computes the spline of scipy's
CubicSpline bit for bit, with numpy alone: the same tridiagonal system for
the knot derivatives, the same cubic Hermite coefficients, and the
evaluation of its piecewise polynomial (half-open intervals, the last one
closed, each cubic summed from its constant term up).

The tridiagonal solves are a port of LAPACK's dgtsv, which scipy's
solve_banded((1, 1), ...) calls: its row swaps, its fact = dl/d divisions
and its back substitution (b - du x[i+1] - dl x[i+2]) / d, the dl = 0 term
included (it decides the sign of a zero).  The elimination depends on the
knots and the end condition alone, so it is made once per (end condition,
knots) and cached; so is the periodic spline's corner solve.  The right
sides are then swept through it in one of two ways with the same arithmetic
per element, so both give LAPACK's bits:

- column by column in Python floats, about 0.3 us per row and column (the
  loop's cost): for tall narrow systems, such as the circle glue's 2047 or
  801 rows by 2 columns;
- row by row as numpy row operations, about 5-8 us per row at any width up
  to a few hundred columns (numpy's per-call cost): for short wide systems,
  such as the torus glue's 25 or 47 rows by 150-294 columns, where the
  column loop would cost 6-18 times as much.

The two costs cross near _ROW_SWEEP_COLUMNS columns (2-vCPU Xeon, Python
3.11, numpy 2.4).  The three-knot parabola's 3 x 3 system goes to
numpy.linalg.solve, LAPACK's dgesv as in scipy's solve.
"""

from functools import lru_cache

import numpy as np

# a system with at least this many right-hand columns is swept row by row in
# numpy, a narrower one column by column in Python floats
_ROW_SWEEP_COLUMNS = 20


# knots a subnormal apart, values near the float range or a t far past the
# knots overflow the spline to inf or NaN; its callers refuse a non-finite
# metric (family.positivity_margin, the solve's horizon halving)
@np.errstate(over="ignore", invalid="ignore")
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
        s = _periodic_derivatives(x, dx, dxr, y, slope)
    elif n == 3:
        s = _parabola_derivatives(dx, dxr, y, slope)
    else:
        s = _not_a_knot_derivatives(x, dx, dxr, y, slope)
    h = (s[:-1] + s[1:] - 2 * slope) / dxr
    c = np.stack((h / dxr, (slope - s[:-1]) / dxr - h, s[:-1], y[:-1]))
    x0, period = x[0], x[-1] - x[0]

    @np.errstate(over="ignore", invalid="ignore")
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


class _Tridiagonal:
    """dgtsv's elimination of the tridiagonal matrix banded in ab as
    solve_banded((1, 1), ab, ...) reads it, kept to sweep right sides
    through.

    Row i of the elimination either keeps its rows (fact = dl[i] / d[i]) or
    swaps rows i and i+1 (fact = d[i] / dl[i]), whichever puts the larger
    entry on the diagonal; a swap fills in the second superdiagonal.
    """

    def __init__(self, ab):
        du, d, dl = ab[0, 1:].tolist(), ab[1].tolist(), ab[2, :-1].tolist()
        n = len(d)
        du2 = [0.0] * (n - 2)  # the fill-in: row i's entry in column i+2
        self.steps = []  # (swapped, fact) of each row i < n-1
        for i in range(n - 1):
            swapped = not abs(d[i]) >= abs(dl[i])
            if swapped:
                fact = d[i] / dl[i]
                d[i] = dl[i]
                temp = d[i + 1]
                d[i + 1] = du[i] - fact * temp
                if i < n - 2:
                    du2[i] = du[i + 1]
                    du[i + 1] = -fact * du2[i]
                du[i] = temp
            elif d[i] == 0:
                raise np.linalg.LinAlgError("singular matrix")
            else:
                fact = dl[i] / d[i]
                d[i + 1] = d[i + 1] - fact * du[i]
            self.steps.append((swapped, fact))
        if d[-1] == 0:
            raise np.linalg.LinAlgError("singular matrix")
        # the back substitution: rows n-1 and n-2, then n-3 down to 0
        self.last = (d[-1], du[-1], d[-2])
        self.back = list(zip(du[-2::-1], du2[::-1], d[-3::-1]))

    def solve(self, b):
        """x with A x = b for the (n, k) right sides b, bit for bit dgtsv's."""
        if b.shape[1] >= _ROW_SWEEP_COLUMNS:
            return np.array(self._sweep(list(b)))
        return np.array([self._sweep(column) for column in b.T.tolist()]).T

    def _sweep(self, rows):
        """dgtsv's arithmetic on rows: the n entries of one right-hand
        column as floats, or the n rows of all of them as numpy arrays."""
        z = []  # the eliminated right side, rows 0..n-2 as they are final
        carry = rows[0]  # row i, which step i still changes
        for (swapped, fact), row in zip(self.steps, rows[1:]):
            if swapped:
                z.append(row)
                carry = carry - fact * row
            else:
                z.append(carry)
                carry = row - fact * carry
        d_last, du, d = self.last
        x2 = carry / d_last
        x1 = (z[-1] - du * x2) / d
        out = [x2, x1]
        for zi, (du, du2, di) in zip(z[-2::-1], self.back):
            x1, x2 = (zi - du * x1 - du2 * x2) / di, x1
            out.append(x1)
        out.reverse()
        return out


@lru_cache(maxsize=16)
def _factored(bc_type, knots):
    """The part of the knot-derivative solve that only the knots (the bytes
    of x) and the end condition decide: the elimination, and for "periodic"
    also the corner column's solution s2 and the last row's denominator.

    The periodic system has n-1 unknowns, knot n-1 being knot 0: its
    (n-2) x (n-2) tridiagonal block is solved for the right side and for the
    corner column, and the last unknown follows from the last row.
    """
    x = np.frombuffer(knots)
    dx = np.diff(x)
    n = len(x)
    # C^2 continuity at the inner knots, rows 1..n-2; rows 0 and n-1 are the
    # end condition's
    ab = np.zeros((3, n))
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    if bc_type == "periodic":
        ab = ab[:, :-1]
        ab[1, 0] = 2 * (dx[-1] + dx[0])
        ab[0, 1] = dx[-1]
        lu = _Tridiagonal(ab[:, :-1])
        b2 = np.zeros((n - 2, 1))
        b2[0] = -dx[0]
        b2[-1] = -dx[-3]
        s2 = lu.solve(b2)[:, 0]
        s2.flags.writeable = False  # the cache hands it to every caller
        return lu, s2, 2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]
    ab[1, 0] = dx[1]
    ab[0, 1] = x[2] - x[0]
    ab[1, -1] = dx[-2]
    ab[-1, -2] = x[-1] - x[-3]
    return _Tridiagonal(ab), None, None


def _inner_rhs(dxr, y, slope):
    """The right side of the C^2 continuity rows 1..n-2; rows 0 and n-1 are
    the end condition's to fill."""
    b = np.empty(y.shape)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    return b


def _not_a_knot_derivatives(x, dx, dxr, y, slope):
    b = _inner_rhs(dxr, y, slope)
    d = x[2] - x[0]
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    lu, _, _ = _factored("not-a-knot", x.tobytes())
    return lu.solve(b.reshape(len(b), -1)).reshape(b.shape)


def _parabola_derivatives(dx, dxr, y, slope):
    """Three knots: both not-a-knot conditions coincide, so the spline is the
    parabola through them."""
    A = np.zeros((3, 3))
    b = np.empty((3,) + y.shape[1:])
    A[0, 0] = A[0, 1] = A[2, 1] = A[2, 2] = 1
    A[1, 0] = dx[1]
    A[1, 1] = 2 * (dx[0] + dx[1])
    A[1, 2] = dx[0]
    b[0] = 2 * slope[0]
    b[1] = 3 * (dxr[0] * slope[1] + dxr[1] * slope[0])
    b[2] = 2 * slope[1]
    return np.linalg.solve(A, b.reshape(3, -1)).reshape(b.shape)


def _periodic_derivatives(x, dx, dxr, y, slope):
    n = len(x)
    b = _inner_rhs(dxr, y, slope)[:-1]
    b[0] = 3 * (dxr[0] * slope[-1] + dxr[-1] * slope[0])
    b[-1] = 3 * (dxr[-1] * slope[-2] + dxr[-2] * slope[-1])
    lu, s2, corner = _factored("periodic", x.tobytes())
    b1 = b[:-1]
    s1 = lu.solve(b1.reshape(n - 2, -1)).reshape(b1.shape)
    s_last = (b[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1]) / corner
    s = np.empty((n,) + y.shape[1:])
    s[:-2] = s1 + s_last * s2.reshape((n - 2,) + (1,) * (y.ndim - 1))
    s[-2] = s_last
    s[-1] = s[0]
    return s
