"""Nonlinear correction operators driving the embedding update.

Everything here is a pointwise/elliptic combination of a compactly
supported cutoff `a`, a candidate normal field `v` (a (nodes, q) array on
the cutoff's grid), and zero-boundary Poisson solves.  The central objects:

  quadratic_load         2 da_i (Lv . v) + a (Lv . D_i v)     (per axis)
  load_potentials        zero-boundary inverse Laplacian of each load
  tangential_correction  a * potential                       (per axis)
  normal_correction      the product quadratic in (v, dv, a, da) minus
                         the coupling a dw + 3 da w, both symmetrized
                         (pairwise; the formula is in its docstring)

Every term carries a factor of a or of da, so the corrections vanish
identically outside the cutoff support; in particular the normal
correction has exactly zero boundary values and its Laplacian inverts
back to it at machine precision.
"""

import numpy as np

from .grid import (
    Grid, ScalarField, VecField, holder_norm, laplacian, multi_indices, random_waves, sym_indices,
)
from .poisson import solve_dirichlet


def smoothstep(t):
    """Degree-9 polynomial step: 0 at t<=0, 1 at t>=1, C^4 joins.

    C^4 joins keep fourth discrete derivatives of profiles bounded under
    refinement.
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**5 * (126.0 + t * (-420.0 + t * (540.0 + t * (-315.0 + t * 70.0))))


def radial_window(r, flat, support):
    """Pinned window: 1 for r <= flat, 0 for r >= support, clipped 1 - smoothstep between."""
    s = (r - flat) / (support - flat)
    # the degree-9 step polynomial can overshoot 1 by ~1 ulp near its
    # upper knot, which would leak sign into partition weights
    vals = np.clip(1.0 - smoothstep(s), 0.0, 1.0)
    vals[r <= flat] = 1.0
    vals[r >= support] = 0.0
    return vals


def smoothstep_slope(t):
    """Closed-form derivative of `smoothstep` (zero outside (0,1))."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    return np.where(inside, 630.0 * tc**4 * (1.0 - tc) ** 4, 0.0)


class Cutoff:
    """Radial cutoff: 1 on the flat ball, 0 outside the support ball.

    Parameters
    ----------
    grid : Grid
        Grid the cutoff lives on.
    flat_radius : float
        a == 1 for r <= flat_radius (default 0.5).
    support_radius : float
        a == 0 for r >= support_radius (< 1; default 0.75).

    Attributes
    ----------
    values : ndarray, shape (num_nodes,)
        The cutoff a (exactly 1.0 / 0.0 on the flat/outside regions).
    grad : list of ndarray, shape (num_nodes,)
        grad[i] is the analytic partial derivative da/dx_i.
    """

    def __init__(self, grid: Grid, flat_radius=0.5, support_radius=0.75):
        if not (0.0 < flat_radius < support_radius < 1.0):
            raise ValueError(
                "Cutoff: need 0 < flat_radius < support_radius < 1, got "
                f"flat_radius={flat_radius}, support_radius={support_radius}"
            )
        self.grid = grid
        self.flat_radius = float(flat_radius)
        self.support_radius = float(support_radius)
        r = grid.radius()
        self.values = radial_window(r, self.flat_radius, self.support_radius)
        width = self.support_radius - self.flat_radius
        s = (r - self.flat_radius) / width
        # analytic radial gradient: da/dx_i = -S'(s)/width * x_i/r
        slope = -smoothstep_slope(s) / width
        safe_r = np.where(r > 0.0, r, 1.0)
        self.grad = [slope * grid.coords[:, ax] / safe_r for ax in range(grid.dim)]


def _d1(grid, axis):
    return grid.derivative_matrix(multi_indices(grid.dim, 1)[axis])


def quadratic_load(cut: Cutoff, v):
    """The per-axis loads 2 da_i (Lv . v) + a (Lv . D_i v), quadratic in v (nodes, q)."""
    g = cut.grid
    lap_v = laplacian(g, v)
    lap_dot_v = np.sum(lap_v * v, axis=1)
    return [
        2.0 * cut.grad[i] * lap_dot_v + cut.values * np.sum(lap_v * (_d1(g, i) @ v), axis=1)
        for i in range(g.dim)
    ]


def load_potentials(cut: Cutoff, v):
    """Zero-boundary potentials of the per-axis loads, and their largest solve residual."""
    sols = [solve_dirichlet(cut.grid, load) for load in quadratic_load(cut, v)]
    return [s.u for s in sols], max(s.residual_sup for s in sols)


def tangential_correction(cut: Cutoff, potentials):
    """Per-axis correction a * potential, shape (nodes, n)."""
    return np.column_stack([cut.values * w for w in potentials])


def normal_correction(cut: Cutoff, v, potentials):
    """Pairwise correction tensor: a gradient product minus a coupling.

    With dv_i = D_i v, dw_ij = D_i w_j (w the potentials) and da_i the
    cutoff's analytic gradient, component (i, j) of sym_indices is
      4 da_i da_j (v.v) + 2 a da_i (dv_j.v) + 2 a da_j (dv_i.v) + a^2 (dv_i.dv_j)
      - (a dw_ij + a dw_ji + 3 da_i w_j + 3 da_j w_i).
    Every term carries a or da, so the tensor vanishes outside the cutoff
    support and has exactly zero boundary values; its discrete Laplacian
    (grid.laplacian) therefore inverts back to it.  Shape (nodes, n(n+1)/2).
    """
    g = cut.grid
    a, da, w = cut.values, cut.grad, potentials
    dv = [_d1(g, i) @ v for i in range(g.dim)]
    dw = [[_d1(g, i) @ wj for wj in w] for i in range(g.dim)]
    cols = []
    for i, j in sym_indices(g.dim):
        product = (
            4.0 * da[i] * da[j] * np.sum(v * v, axis=1)
            + 2.0 * a * da[i] * np.sum(dv[j] * v, axis=1)
            + 2.0 * a * da[j] * np.sum(dv[i] * v, axis=1)
            + a * a * np.sum(dv[i] * dv[j], axis=1)
        )
        coupling = a * dw[i][j] + a * dw[j][i] + 3.0 * da[i] * w[j] + 3.0 * da[j] * w[i]
        cols.append(product - coupling)
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# continuity witnesses (recorded constants, never gates)


def continuity_witnesses(cut: Cutoff, samples=20, alpha=0.5, seed=0):
    """Empirical Lipschitz-type constants of the correction operators.

    For random pairs (v1, v2), records the largest observed ratios
      load:        |N(v1)-N(v2)|_{0,a} / ((|v1|+|v2|) |v1-v2|)_{2,a}
      laplacian:   same shape for the correction Laplacian
      tangential:  |P(v1)-P(v2)|_{2,a} / ((|v1|+|v2|) |v1-v2|)_{2,a}
      normal:      |Q(v1)-Q(v2)|_{2,a} / ((|v1|+|v2|) |v1-v2|)_{2,a}
    All witnesses are reported as numbers; nothing is asserted here.
    """
    rng = np.random.default_rng(seed)
    g = cut.grid
    out = {"load": 0.0, "laplacian": 0.0, "tangential": 0.0, "normal": 0.0}
    for _ in range(samples):
        v1 = cut.values[:, None] * random_waves(g, rng, 3)
        v2 = cut.values[:, None] * random_waves(g, rng, 3)
        size = (
            holder_norm(VecField(g, v1), 2, alpha) + holder_norm(VecField(g, v2), 2, alpha)
        ) * holder_norm(VecField(g, v1 - v2), 2, alpha)
        if size < 1e-14:
            continue
        loads1, loads2 = quadratic_load(cut, v1), quadratic_load(cut, v2)
        for n1, n2 in zip(loads1, loads2):
            out["load"] = max(
                out["load"], holder_norm(ScalarField(g, n1 - n2), 0, alpha) / size
            )
        w1 = [solve_dirichlet(g, n).u for n in loads1]
        w2 = [solve_dirichlet(g, n).u for n in loads2]
        dq = normal_correction(cut, v1, w1) - normal_correction(cut, v2, w2)
        out["normal"] = max(out["normal"], holder_norm(VecField(g, dq), 2, alpha) / size)
        for k in range(dq.shape[1]):
            dm = laplacian(g, dq[:, k])
            out["laplacian"] = max(
                out["laplacian"], holder_norm(ScalarField(g, dm), 0, alpha) / size
            )
        dp = tangential_correction(cut, w1) - tangential_correction(cut, w2)
        out["tangential"] = max(out["tangential"], holder_norm(VecField(g, dp), 2, alpha) / size)
    out["samples"] = samples
    out["alpha"] = alpha
    return out
