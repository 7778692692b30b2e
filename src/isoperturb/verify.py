"""Independent finite-difference oracles for isometry residuals.

Deliberately separate from the solver pipeline: derivatives here are
fourth-order (five/six-point windows, one-sided at segment ends via local
Vandermonde weights), so that a residual reported by this module cannot
inherit the second-order truncation of the machinery under test.
"""

import math
from functools import lru_cache

import numpy as np

from .grid import Grid, SymTensorField, VecField, sym_indices

_D1_WINDOW = 5  # exact through degree 4 -> O(h^4)
_D2_WINDOW = 6  # exact through degree 5 -> O(h^4)


@lru_cache(maxsize=None)
def _window_weights(offsets, order):
    """Derivative weights on integer offsets via a Vandermonde solve.

    offsets is a tuple; a grid has a handful of distinct windows, so each
    is solved once.
    """
    k = len(offsets)
    a = np.vander(np.asarray(offsets, dtype=float), k, increasing=True).T
    rhs = np.zeros(k)
    rhs[order] = math.factorial(order)
    weights = np.linalg.solve(a, rhs)
    weights.flags.writeable = False  # every caller shares the cached array
    return weights


def _segment_rows(ids, h, order):
    """(rows, cols, vals) of the fourth-order derivative along one contiguous
    segment of nodes: Grid.stencil_operator's segment for the oracle."""
    rows, cols, vals = [], [], []
    k = len(ids)
    w = min(_D1_WINDOW if order == 1 else _D2_WINDOW, k)
    if w <= order:
        return rows, cols, vals
    for r in range(k):
        lo = min(max(r - w // 2, 0), k - w)
        offs = np.arange(lo, lo + w) - r
        rows += [ids[r]] * w
        cols += list(ids[r + offs])
        vals += list(_window_weights(tuple(offs.tolist()), order) / h**order)
    return rows, cols, vals


def oracle_derivative_matrix(grid: Grid, s):
    """Fourth-order derivative operator for multi-index s (|s| <= 2)."""
    if len(s) != grid.dim or any(k < 0 for k in s) or sum(s) > 2:
        raise ValueError(f"oracle supports multi-indices up to order 2, got {s}")
    if sum(s) == 0:
        raise ValueError("oracle derivative order must be at least 1")
    return grid.stencil_operator(_segment_rows, tuple(int(k) for k in s))


def oracle_gradients(F: VecField):
    """Per-axis fourth-order first derivatives of a vector field."""
    g = F.grid
    return [oracle_derivative_matrix(g, tuple(1 if a == ax else 0 for a in range(g.dim))) @ F.values for ax in range(g.dim)]


def isometry_residual(F: VecField, F0: VecField, f: SymTensorField):
    """sup and field of  dF.dF - dF0.dF0 - f  over all index pairs.

    All derivatives are the oracle's own fourth-order stencils; nothing is
    reused from the solve that produced F.
    """
    g = F.grid
    dF = oracle_gradients(F)
    dF0 = oracle_gradients(F0)
    cols = []
    for k, (i, j) in enumerate(sym_indices(g.dim)):
        got = np.sum(dF[i] * dF[j], axis=1) - np.sum(dF0[i] * dF0[j], axis=1)
        cols.append(got - f.values[:, k])
    res = SymTensorField(g, np.column_stack(cols))
    return float(np.max(np.abs(res.values))), res


# ---------------------------------------------------------------------------
# periodic meshes (global verification on the circle / torus)


def periodic_weights(order):
    if order == 1:
        return np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, np.arange(-2, 3)
    if order == 2:
        return np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, np.arange(-2, 3)
    raise ValueError(f"periodic oracle supports order 1 or 2, got {order}")


def periodic_derivative(values, h, order=1, axis=0):
    """Fourth-order periodic derivative along one axis of a sampled mesh."""
    vals = np.asarray(values, dtype=float)
    w, offs = periodic_weights(order)
    out = np.zeros_like(vals)
    for c, o in zip(w, offs):
        out += c * np.roll(vals, -o, axis=axis)
    return out / h**order
