"""Nonlinear correction operators driving the embedding update.

Everything here is a pointwise/elliptic combination of a compactly
supported cutoff `a`, a candidate normal field `v` (q components), and
zero-boundary Poisson solves.  The central objects:

  quadratic_load          2 da (Lv . v) + a (Lv . dv)         (per axis)
  load_potentials         zero-boundary inverse Laplacian of each load
  tangential_correction   a * potential                        (per axis)
  potential_coupling_term a dw + 3 da w symmetrized            (pairwise)
  gradient_product_term   the quadratic form in (v, dv, a, da) (pairwise)
  normal_correction       gradient_product_term - potential_coupling_term

Every term carries a factor of a or of da, so the corrections vanish
identically outside the cutoff support; in particular the normal
correction has exactly zero boundary values and its Laplacian inverts
back to it at machine precision.
"""

import numpy as np

from .grid import (
    Grid, ScalarField, SymTensorField, VecField, holder_norm, laplacian, random_waves, sym_indices,
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
    a : ScalarField
        The cutoff values (exactly 1.0 / 0.0 on the flat/outside regions).
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
        self.a = ScalarField(grid, radial_window(r, self.flat_radius, self.support_radius))
        width = self.support_radius - self.flat_radius
        s = (r - self.flat_radius) / width
        # analytic radial gradient: da/dx_i = -S'(s)/width * x_i/r
        slope = -smoothstep_slope(s) / width
        safe_r = np.where(r > 0.0, r, 1.0)
        self._grad = [
            ScalarField(grid, slope * grid.coords[:, ax] / safe_r) for ax in range(grid.dim)
        ]

    def gradient(self, axis) -> ScalarField:
        """Analytic partial derivative of the cutoff along `axis`."""
        return self._grad[axis]

    @property
    def values(self):
        return self.a.values


def _check_pair(cut: Cutoff, v: VecField):
    if v.grid is not cut.grid:
        raise ValueError("operator dimension error: v lives on a different grid than the cutoff")


def _check_axes(grid, i, j):
    if not (0 <= i <= j < grid.dim):
        raise ValueError(f"operator axes must satisfy 0 <= i <= j < {grid.dim}, got ({i},{j})")


def _d1(grid, axis):
    return grid.derivative_matrix(tuple(1 if a == axis else 0 for a in range(grid.dim)))


def quadratic_load(cut: Cutoff, v: VecField, axis: int) -> ScalarField:
    """Load along one axis: 2 da (Lv . v) + a (Lv . dv); quadratic in v."""
    _check_pair(cut, v)
    _check_axes(cut.grid, axis, axis)
    g = cut.grid
    lap_v = laplacian(v).values
    dv = _d1(g, axis) @ v.values
    da = cut.gradient(axis).values
    vals = 2.0 * da * np.sum(lap_v * v.values, axis=1) + cut.values * np.sum(lap_v * dv, axis=1)
    return ScalarField(g, vals)


def load_potentials(cut: Cutoff, v: VecField):
    """Zero-boundary potentials of the per-axis loads, and their largest solve residual."""
    sols = [solve_dirichlet(quadratic_load(cut, v, ax)) for ax in range(cut.grid.dim)]
    return [s.u for s in sols], max(s.residual_sup for s in sols)


def tangential_correction(cut: Cutoff, v: VecField, potentials) -> VecField:
    """Per-axis correction a * potential (n components)."""
    _check_pair(cut, v)
    cols = [cut.values * wi.values for wi in potentials]
    return VecField(cut.grid, np.column_stack(cols))


def potential_coupling_term(cut: Cutoff, v: VecField, i: int, j: int, potentials) -> ScalarField:
    """Symmetrized potential coupling: a dw + 3 da w in both axis orders."""
    _check_pair(cut, v)
    _check_axes(cut.grid, i, j)
    g = cut.grid
    a = cut.values
    vals = (
        a * (_d1(g, i) @ potentials[j].values)
        + a * (_d1(g, j) @ potentials[i].values)
        + 3.0 * cut.gradient(i).values * potentials[j].values
        + 3.0 * cut.gradient(j).values * potentials[i].values
    )
    return ScalarField(g, vals)


def gradient_product_term(cut: Cutoff, v: VecField, i: int, j: int) -> ScalarField:
    """Quadratic form 4 da da (v.v) + 2 a da (dv.v) x2 + a^2 (dv.dv)."""
    _check_pair(cut, v)
    _check_axes(cut.grid, i, j)
    g = cut.grid
    a = cut.values
    dai, daj = cut.gradient(i).values, cut.gradient(j).values
    dvi = _d1(g, i) @ v.values
    dvj = _d1(g, j) @ v.values
    vals = (
        4.0 * dai * daj * np.sum(v.values * v.values, axis=1)
        + 2.0 * a * dai * np.sum(dvj * v.values, axis=1)
        + 2.0 * a * daj * np.sum(dvi * v.values, axis=1)
        + a * a * np.sum(dvi * dvj, axis=1)
    )
    return ScalarField(g, vals)


def normal_correction(cut: Cutoff, v: VecField, potentials) -> SymTensorField:
    """Pairwise correction tensor (gradient product minus coupling).

    Every term carries a or da, so the tensor vanishes outside the cutoff
    support and has exactly zero boundary values; its discrete Laplacian
    (grid.laplacian) therefore inverts back to it.
    """
    _check_pair(cut, v)
    g = cut.grid
    cols = []
    for i, j in sym_indices(g.dim):
        u2 = gradient_product_term(cut, v, i, j)
        u1 = potential_coupling_term(cut, v, i, j, potentials)
        cols.append(u2.values - u1.values)
    return SymTensorField(g, np.column_stack(cols))


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
        v1 = VecField(g, cut.values[:, None] * random_waves(g, rng, 3))
        v2 = VecField(g, cut.values[:, None] * random_waves(g, rng, 3))
        diff = VecField(g, v1.values - v2.values)
        size = (
            holder_norm(v1, 2, alpha) + holder_norm(v2, 2, alpha)
        ) * holder_norm(diff, 2, alpha)
        if size < 1e-14:
            continue
        for ax in range(g.dim):
            dn = quadratic_load(cut, v1, ax).values - quadratic_load(cut, v2, ax).values
            out["load"] = max(
                out["load"], holder_norm(ScalarField(g, dn), 0, alpha) / size
            )
        (w1, _), (w2, _) = load_potentials(cut, v1), load_potentials(cut, v2)
        q1 = normal_correction(cut, v1, w1)
        q2 = normal_correction(cut, v2, w2)
        dq = SymTensorField(g, q1.values - q2.values)
        out["normal"] = max(out["normal"], holder_norm(dq, 2, alpha) / size)
        for k in range(dq.values.shape[1]):
            dm = laplacian(ScalarField(g, dq.values[:, k]))
            out["laplacian"] = max(out["laplacian"], holder_norm(dm, 0, alpha) / size)
        p1 = tangential_correction(cut, v1, w1)
        p2 = tangential_correction(cut, v2, w2)
        dp = VecField(g, p1.values - p2.values)
        out["tangential"] = max(out["tangential"], holder_norm(dp, 2, alpha) / size)
    out["samples"] = samples
    out["alpha"] = alpha
    return out
