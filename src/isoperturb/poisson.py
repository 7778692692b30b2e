"""Dirichlet solves for the Poisson equation on the interval / unit disk.

The zero-boundary inverse Laplacian is the workhorse behind the correction
operators: every potential in the pipeline is a solve against the grid's
own second-difference operator, so the inverse is built to be consistent
with `grid.laplacian` at interior nodes.

n=1 uses exact double summation of the three-point operator (machine
precision roundtrip); n=2 assembles unequal-arm five-point stencils at the
circular boundary and factorizes once per grid (factorization is cached and
reused across the many solves an iteration makes).
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import splu

from .grid import Grid, ScalarField, holder_norm, radial_bump

_MIN_ARM = 1e-6


@dataclass
class DirichletSolution:
    """Result of a zero-boundary Poisson solve.

    Attributes
    ----------
    u : ScalarField
        Solution with u = 0 at boundary nodes.
    residual_sup : float
        max |L u - f| over interior nodes, where L is the solver's own
        discrete Laplacian (unequal-arm stencils near the circle for n=2).
    boundary_sup : float
        max |u| over boundary nodes (identically zero by construction).
    """

    u: ScalarField
    residual_sup: float
    boundary_sup: float


class PoissonSolver:
    """Grid-bound Dirichlet solver with a cached factorization (n=2)."""

    def __init__(self, grid: Grid):
        self.grid = grid
        if grid.dim == 2:
            self._assemble_disk()
        else:
            self._interior = np.where(grid.interior_mask)[0]

    # -- construction -------------------------------------------------

    def _assemble_disk(self):
        g = self.grid
        h = g.spacing
        unknown = np.where(g.interior_mask)[0]
        self._interior = unknown
        col_of = {int(n): k for k, n in enumerate(unknown)}
        rows, cols, vals = [], [], []
        for k, node in enumerate(unknown):
            i, j = g.lattice_index[node]
            x, y = g.coords[node]
            arm = {}
            nbr = {}
            for key, (di, dj) in (("e", (1, 0)), ("w", (-1, 0)), ("n", (0, 1)), ("s", (0, -1))):
                other = g._node_id.get((i + di, j + dj))
                if other is not None:
                    arm[key] = 1.0
                    nbr[key] = other
                else:
                    # arm cut by the circle: fraction of h inside the disk
                    if di != 0:
                        cross = np.copysign(np.sqrt(max(0.0, 1.0 - y * y)), di)
                        theta = (cross - x) / (di * h)
                    else:
                        cross = np.copysign(np.sqrt(max(0.0, 1.0 - x * x)), dj)
                        theta = (cross - y) / (dj * h)
                    arm[key] = max(float(theta), _MIN_ARM)
                    nbr[key] = None
            h2 = h * h
            for a, b in (("e", "w"), ("n", "s")):
                ta, tb = arm[a], arm[b]
                rows.append(k)
                cols.append(k)
                vals.append(-2.0 / (ta * tb * h2))
                for key, t in ((a, ta), (b, tb)):
                    other = nbr[key]
                    if other is not None and g.interior_mask[other]:
                        rows.append(k)
                        cols.append(col_of[int(other)])
                        vals.append(2.0 / (t * (ta + tb) * h2))
                    # lattice boundary nodes and circle crossings carry u = 0
        m = len(unknown)
        self._matrix = csr_matrix((vals, (rows, cols)), shape=(m, m))
        self._lu = splu(self._matrix.tocsc())

    # -- solving -------------------------------------------------------

    def solve(self, f: ScalarField) -> DirichletSolution:
        g = self.grid
        if f.grid is not g:
            raise ValueError("solve_dirichlet: field grid does not match solver grid")
        fv = np.asarray(f.values, dtype=float)
        if not np.all(np.isfinite(fv[g.interior_mask])):
            raise ValueError("solve_dirichlet: f is not finite on interior nodes")
        if g.dim == 1:
            u = self._solve_interval(fv)
            lap = g.derivative_matrix((2,)) @ u
            res = float(np.max(np.abs(lap[self._interior] - fv[self._interior])))
        else:
            u = np.zeros(g.num_nodes)
            rhs = fv[self._interior]
            sol = self._lu.solve(rhs)
            if not np.all(np.isfinite(sol)):
                raise RuntimeError(
                    "solve_dirichlet: factorization produced non-finite values "
                    f"(matrix may be near-singular; nnz={self._matrix.nnz})"
                )
            u[self._interior] = sol
            res = float(np.max(np.abs(self._matrix @ sol - rhs)))
        bsup = float(np.max(np.abs(u[g.boundary_idx]))) if len(g.boundary_idx) else 0.0
        return DirichletSolution(ScalarField(g, u), res, bsup)

    def _solve_interval(self, fv):
        # exact inverse of the interior three-point operator with u(+-1)=0:
        # delta_k = u_{k+1}-u_k satisfies delta_k = delta_0 + h^2 * cumsum(f)
        g = self.grid
        h = np.longdouble(g.spacing)
        n = g.num_nodes
        # extended-precision accumulation keeps the roundtrip residual at
        # the 1e-12 level even on fine grids
        s = np.cumsum(fv[1 : n - 1].astype(np.longdouble))  # s_k = sum_{m<=k} f_m
        partial = np.cumsum(s)
        delta0 = -h * h * partial[-1] / (n - 1)
        u = np.zeros(n, dtype=np.longdouble)
        u[1] = delta0
        u[2:n] = np.arange(2, n) * delta0 + h * h * partial
        u[n - 1] = 0.0
        return u.astype(float)


def _solver_for(grid: Grid) -> PoissonSolver:
    solver = getattr(grid, "_poisson_solver", None)
    if solver is None:
        solver = PoissonSolver(grid)
        grid._poisson_solver = solver
    return solver


def solve_dirichlet(f: ScalarField) -> DirichletSolution:
    """Solve (Laplacian u) = f on the grid with u = 0 on the boundary."""
    return _solver_for(f.grid).solve(f)


# ---------------------------------------------------------------------------
# elliptic estimate monitors (recorded constants; never gate the solve)


def _supported_sample(grid, rng, radius):
    prof = radial_bump(grid, radius, 4)
    x = grid.coords[:, 0]
    c = rng.uniform(-1.0, 1.0, 3)
    if grid.dim == 1:
        wave = c[0] + c[1] * np.sin(3.0 * x) + c[2] * x * x
    else:
        y = grid.coords[:, 1]
        wave = c[0] + c[1] * np.sin(2.0 * x + y) + c[2] * x * y
    return ScalarField(grid, prof * wave)


def elliptic_monitors(grid, samples=50, alpha=0.5, seed=0, support_radius=None):
    """Record empirical constants of the interior-estimate hierarchy.

    Returns a dict with the largest observed ratios |u|_{m+2,a}/|f|_{m,a}
    over a corpus of compactly supported right-hand sides, plus the
    support-constant spread across m in {1,2} and a linearity defect.
    These are monitors only; nothing here gates a solve.
    """
    rng = np.random.default_rng(seed)
    if support_radius is None:
        support_radius = grid.support_radii[1]
    solver = _solver_for(grid)
    schauder = 0.0
    higher = {1: 0.0, 2: 0.0}
    fields = []
    for _ in range(samples):
        f = _supported_sample(grid, rng, support_radius)
        nf0 = holder_norm(f, 0, alpha).value
        if nf0 < 1e-14:
            continue
        sol = solver.solve(f)
        schauder = max(schauder, holder_norm(sol.u, 2, alpha).value / nf0)
        for m in (1, 2):
            nfm = holder_norm(f, m, alpha).value
            hi = holder_norm(sol.u, m + 2, alpha).value
            higher[m] = max(higher[m], hi / nfm)
        fields.append(f)
    # linearity spot check on the last two corpus members
    lin = 0.0
    if len(fields) >= 2:
        fa, fb = fields[-2], fields[-1]
        a, b = 1.7, -0.4
        mixed = solver.solve(ScalarField(grid, a * fa.values + b * fb.values)).u.values
        sep = a * solver.solve(fa).u.values + b * solver.solve(fb).u.values
        scale = max(1.0, float(np.max(np.abs(sep))))
        lin = float(np.max(np.abs(mixed - sep))) / scale
    spread = max(higher[1], higher[2]) / max(min(higher[1], higher[2]), 1e-300)
    return {
        "schauder_ratio": schauder,
        "higher_order_ratio_m1": higher[1],
        "higher_order_ratio_m2": higher[2],
        "support_constant_spread": spread,
        "linearity_defect": lin,
        "samples": samples,
        "alpha": alpha,
        "support_radius": support_radius,
    }
