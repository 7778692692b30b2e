"""Independent finite-difference oracles for isometry residuals.

Deliberately separate from the solver pipeline: derivatives here are
fourth-order, so that a residual reported by this module cannot inherit the
second-order truncation of the machinery under test.  The oracle follows
the solver's one stencil rule (see grid) and differs from it only in its
window widths, ORACLE_WIDTHS = (5, 6): five- and six-node windows, one-sided
at the ends of a line, with the exact weights of grid.window_weights.  The
periodic derivative reads the centred five-node window of the same weights.
A field is its (nodes, k) array; a VecField pairs it with a grid only to be
measured, as isometry_residual's embeddings F and F0 are.
"""

import numpy as np

from .grid import Grid, VecField, multi_indices, sym_indices, window_weights

# (order-1, order-2) window widths: exact through degrees 4 and 5 -> O(h^4)
ORACLE_WIDTHS = (5, 6)


def oracle_derivative_matrix(grid: Grid, s):
    """Fourth-order derivative operator for multi-index s (|s| <= 2)."""
    if len(s) != grid.dim or any(k < 0 for k in s) or sum(s) > 2:
        raise ValueError(f"oracle supports multi-indices up to order 2, got {s}")
    if sum(s) == 0:
        raise ValueError("oracle derivative order must be at least 1")
    return grid.stencil_operator(ORACLE_WIDTHS, tuple(int(k) for k in s))


def oracle_gradients(grid: Grid, x):
    """Per-axis fourth-order first derivatives of a (nodes, q) field."""
    return [oracle_derivative_matrix(grid, s) @ x for s in multi_indices(grid.dim, 1)]


def isometry_residual(F: VecField, F0: VecField, f):
    """(sup, residual) of  dF.dF - dF0.dF0 - f  over all index pairs.

    f and the residual are (nodes, n(n+1)/2) arrays on F's grid, in
    sym_indices order.

    All derivatives are the oracle's own fourth-order stencils; nothing is
    reused from the solve that produced F.
    """
    g = F.grid
    dF = oracle_gradients(g, F.values)
    dF0 = oracle_gradients(g, F0.values)
    cols = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or NaN: not <= tol
        for k, (i, j) in enumerate(sym_indices(g.dim)):
            got = np.sum(dF[i] * dF[j], axis=1) - np.sum(dF0[i] * dF0[j], axis=1)
            cols.append(got - f[:, k])
    res = np.column_stack(cols)
    return float(np.max(np.abs(res))), res


# ---------------------------------------------------------------------------
# periodic meshes (global verification on the circle / torus)


def periodic_derivative(values, h, order=1, axis=0):
    """Fourth-order periodic derivative along one axis of a sampled mesh."""
    if order not in (1, 2):
        raise ValueError(f"periodic oracle supports order 1 or 2, got {order}")
    vals = np.asarray(values, dtype=float)
    offsets = tuple(range(-2, 3))
    out = np.zeros_like(vals)
    for c, o in zip(window_weights(offsets, order), offsets):
        out += c * np.roll(vals, -o, axis=axis)
    return out / (h if order == 1 else h * h)
