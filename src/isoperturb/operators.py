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
  normal_correction_laplacian   discrete Laplacian of the above

Every term carries a factor of a or of da, so the corrections vanish
identically outside the cutoff support; in particular the normal
correction has exactly zero boundary values and its Laplacian inverts
back to it at machine precision.
"""

import numpy as np

from .grid import Grid, ScalarField, SymTensorField, VecField, holder_norm, sym_indices
from .poisson import solve_dirichlet

_PROFILE_DEGREES = (7, 9, 11)


def smoothstep(t, degree=9):
    """Polynomial step: 0 at t<=0, 1 at t>=1, C^k joins (k=(degree-1)/2).

    degree 7, 9 or 11; default 9 gives C^4 joins so that fourth discrete
    derivatives of profiles stay bounded under refinement.
    """
    if degree not in _PROFILE_DEGREES:
        raise ValueError(f"smoothstep: degree must be one of {_PROFILE_DEGREES}, got {degree}")
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    if degree == 7:
        return t**4 * (35.0 + t * (-84.0 + t * (70.0 - t * 20.0)))
    if degree == 9:
        return t**5 * (126.0 + t * (-420.0 + t * (540.0 + t * (-315.0 + t * 70.0))))
    return t**6 * (462.0 + t * (-1980.0 + t * (3465.0 + t * (-3080.0 + t * (1386.0 - t * 252.0)))))


def radial_window(r, flat, support, degree):
    """Pinned window: 1 for r <= flat, 0 for r >= support, clipped 1 - smoothstep between."""
    s = (r - flat) / (support - flat)
    # the high-degree step polynomial can overshoot 1 by ~1 ulp near its
    # upper knot, which would leak sign into partition weights
    vals = np.clip(1.0 - smoothstep(s, degree), 0.0, 1.0)
    vals[r <= flat] = 1.0
    vals[r >= support] = 0.0
    return vals


def smoothstep_slope(t, degree=9):
    """Closed-form derivative of `smoothstep` (zero outside (0,1))."""
    if degree not in _PROFILE_DEGREES:
        raise ValueError(f"smoothstep: degree must be one of {_PROFILE_DEGREES}, got {degree}")
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    base = {7: 140.0, 9: 630.0, 11: 2772.0}[degree]
    k = (degree - 1) // 2
    return np.where(inside, base * tc**k * (1.0 - tc) ** k, 0.0)


class Cutoff:
    """Radial cutoff: 1 on the flat ball, 0 outside the support ball.

    Parameters
    ----------
    grid : Grid
        Grid the cutoff lives on.
    flat_radius : float, optional
        a == 1 for r <= flat_radius.  Defaults to grid.support_radii[0].
    support_radius : float, optional
        a == 0 for r >= support_radius (< 1).  Defaults to
        grid.support_radii[1].
    degree : int
        smoothstep degree of the transition profile (7, 9 or 11).

    Attributes
    ----------
    a : ScalarField
        The cutoff values (exactly 1.0 / 0.0 on the flat/outside regions).
    """

    def __init__(self, grid: Grid, flat_radius=None, support_radius=None, degree=9):
        if flat_radius is None:
            flat_radius = grid.support_radii[0]
        if support_radius is None:
            support_radius = grid.support_radii[1]
        if not (0.0 < flat_radius < support_radius < 1.0):
            raise ValueError(
                "Cutoff: need 0 < flat_radius < support_radius < 1, got "
                f"flat_radius={flat_radius}, support_radius={support_radius}"
            )
        self.grid = grid
        self.flat_radius = float(flat_radius)
        self.support_radius = float(support_radius)
        self.degree = int(degree)
        r = grid.radius()
        self.a = ScalarField(grid, radial_window(r, self.flat_radius, self.support_radius, degree))
        width = self.support_radius - self.flat_radius
        s = (r - self.flat_radius) / width
        # analytic radial gradient: da/dx_i = -S'(s)/width * x_i/r
        slope = -smoothstep_slope(s, degree) / width
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


def _lap_matrix(grid):
    op = None
    for ax in range(grid.dim):
        s = tuple(2 if a == ax else 0 for a in range(grid.dim))
        m = grid.derivative_matrix(s)
        op = m if op is None else op + m
    return op


def _d1(grid, axis):
    return grid.derivative_matrix(tuple(1 if a == axis else 0 for a in range(grid.dim)))


def quadratic_load(cut: Cutoff, v: VecField, axis: int) -> ScalarField:
    """Load along one axis: 2 da (Lv . v) + a (Lv . dv); quadratic in v."""
    _check_pair(cut, v)
    _check_axes(cut.grid, axis, axis)
    g = cut.grid
    lap_v = _lap_matrix(g) @ v.values
    dv = _d1(g, axis) @ v.values
    da = cut.gradient(axis).values
    vals = 2.0 * da * np.sum(lap_v * v.values, axis=1) + cut.values * np.sum(lap_v * dv, axis=1)
    return ScalarField(g, vals)


def load_potentials(cut: Cutoff, v: VecField):
    """Zero-boundary potentials of the per-axis quadratic loads."""
    return [solve_dirichlet(quadratic_load(cut, v, ax)).u for ax in range(cut.grid.dim)]


def tangential_correction(cut: Cutoff, v: VecField, potentials=None) -> VecField:
    """Per-axis correction a * potential (n components)."""
    _check_pair(cut, v)
    w = potentials if potentials is not None else load_potentials(cut, v)
    cols = [cut.values * wi.values for wi in w]
    return VecField(cut.grid, np.column_stack(cols))


def potential_coupling_term(cut: Cutoff, v: VecField, i: int, j: int, potentials=None) -> ScalarField:
    """Symmetrized potential coupling: a dw + 3 da w in both axis orders."""
    _check_pair(cut, v)
    _check_axes(cut.grid, i, j)
    g = cut.grid
    w = potentials if potentials is not None else load_potentials(cut, v)
    a = cut.values
    vals = (
        a * (_d1(g, i) @ w[j].values)
        + a * (_d1(g, j) @ w[i].values)
        + 3.0 * cut.gradient(i).values * w[j].values
        + 3.0 * cut.gradient(j).values * w[i].values
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


def normal_correction(cut: Cutoff, v: VecField, potentials=None) -> SymTensorField:
    """Pairwise correction tensor (gradient product minus coupling).

    Every term carries a or da, so the tensor vanishes outside the cutoff
    support and has exactly zero boundary values; its discrete Laplacian
    therefore inverts back to it (see normal_correction_laplacian).
    """
    _check_pair(cut, v)
    g = cut.grid
    w = potentials if potentials is not None else load_potentials(cut, v)
    cols = []
    for i, j in sym_indices(g.dim):
        u2 = gradient_product_term(cut, v, i, j)
        u1 = potential_coupling_term(cut, v, i, j, potentials=w)
        cols.append(u2.values - u1.values)
    return SymTensorField(g, np.column_stack(cols))


def normal_correction_laplacian(cut: Cutoff, v: VecField, i: int, j: int, correction=None) -> ScalarField:
    """Discrete Laplacian of one normal-correction component."""
    _check_pair(cut, v)
    _check_axes(cut.grid, i, j)
    g = cut.grid
    q = correction if correction is not None else normal_correction(cut, v)
    col = q.values[:, sym_indices(g.dim).index((i, j))]
    return ScalarField(g, _lap_matrix(g) @ col)


# ---------------------------------------------------------------------------
# continuity witnesses (recorded constants, never gates)


def _random_supported_vec(cut, rng, q=3):
    g = cut.grid
    x = g.coords[:, 0]
    prof = cut.values
    cols = []
    for _ in range(q):
        c = rng.uniform(-1.0, 1.0, 3)
        if g.dim == 1:
            wave = c[0] + c[1] * np.sin(2.0 * x) + c[2] * x
        else:
            y = g.coords[:, 1]
            wave = c[0] + c[1] * np.sin(x + y) + c[2] * x * y
        cols.append(prof * wave)
    return VecField(g, np.column_stack(cols))


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
        v1 = _random_supported_vec(cut, rng)
        v2 = _random_supported_vec(cut, rng)
        diff = VecField(g, v1.values - v2.values)
        size = (
            holder_norm(v1, 2, alpha).value + holder_norm(v2, 2, alpha).value
        ) * holder_norm(diff, 2, alpha).value
        if size < 1e-14:
            continue
        for ax in range(g.dim):
            dn = quadratic_load(cut, v1, ax).values - quadratic_load(cut, v2, ax).values
            out["load"] = max(
                out["load"], holder_norm(ScalarField(g, dn), 0, alpha).value / size
            )
        q1, q2 = normal_correction(cut, v1), normal_correction(cut, v2)
        dq = SymTensorField(g, q1.values - q2.values)
        out["normal"] = max(out["normal"], holder_norm(dq, 2, alpha).value / size)
        for i, j in sym_indices(g.dim):
            k = sym_indices(g.dim).index((i, j))
            dm = _lap_matrix(g) @ (q1.values[:, k] - q2.values[:, k])
            out["laplacian"] = max(
                out["laplacian"], holder_norm(ScalarField(g, dm), 0, alpha).value / size
            )
        p1, p2 = tangential_correction(cut, v1), tangential_correction(cut, v2)
        dp = VecField(g, p1.values - p2.values)
        out["tangential"] = max(out["tangential"], holder_norm(dp, 2, alpha).value / size)
    out["samples"] = samples
    out["alpha"] = alpha
    return out
