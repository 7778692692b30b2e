"""Dirichlet solves for the Poisson equation on the interval / unit disk.

A field is its (nodes,) array, or S of them side by side, (nodes, S), read
on the solver's grid; ScalarField pairs it with the grid only to be
measured (the elliptic monitors' norms).

The zero-boundary inverse Laplacian is the workhorse behind the correction
operators: every potential in the pipeline is a solve against the grid's
own second-difference operator, so the inverse is built to be consistent
with `grid.laplacian` at interior nodes.

n=1 uses exact double summation of the three-point operator (machine
precision roundtrip); n=2 assembles unequal-arm five-point stencils at the
circular boundary and factorizes once per grid (factorization is cached and
reused across the many solves an iteration makes).  The 2-d factorization
is a block LU by lattice rows in numpy, each row's Schur complement
inverted densely (see _block_lu); its solutions agree with a sparse LU's to
about 1e-14 relative at N <= 97, with residuals of the same size.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Grid, ScalarField, WindowTable, holder_norms, largest, nodes_first, radial_bump

_MIN_ARM = 1e-6
# support radius of the elliptic monitors' right-hand sides
_MONITOR_SUPPORT = 0.75


class NonFiniteLoad(ValueError):
    """A right side with a NaN or an infinite entry, e.g. a load that overflowed."""


@dataclass
class DirichletSolution:
    """Result of a zero-boundary Poisson solve.

    Attributes
    ----------
    u : ndarray, shape (num_nodes,), or (num_nodes, S) for S columns
        Solution.  On the interval u = 0 at the two end nodes; on the disk
        u = 0 enters through the arms that the circle cuts, and no node
        carries it.
    residual_sup : float, or (S,) array for S columns
        max |L u - f| over the unknowns (nodes 1:-1 of the interval, every
        node of the disk), where L is the solver's own discrete Laplacian
        (unequal-arm stencils near the circle for n=2).
    """

    u: np.ndarray
    residual_sup: float


class PoissonSolver:
    """Grid-bound Dirichlet solver with a cached factorization (n=2)."""

    def __init__(self, grid: Grid):
        self.grid = grid
        if grid.dim == 2:
            self._assemble_disk()

    # -- construction -------------------------------------------------

    def _assemble_disk(self):
        g = self.grid
        h = g.spacing
        h2 = h * h
        m = g.num_nodes  # every node of the open disk is an unknown
        i, j = g.lattice_index.T
        x, y = g.coords.T
        # each node's five-point window: itself, then its x and y arms
        diag = np.zeros(m)
        cols, weights = [np.arange(m)], [diag]
        for pair in (((1, 0), (-1, 0)), ((0, 1), (0, -1))):
            arms = []
            for di, dj in pair:
                # a disk node's lattice neighbours are on the lattice
                other = g.node_index[i + di, j + dj]
                # an arm cut by the circle: fraction of h inside the disk
                if di != 0:
                    cross = np.copysign(np.sqrt(np.maximum(0.0, 1.0 - y * y)), di)
                    theta = (cross - x) / (di * h)
                else:
                    cross = np.copysign(np.sqrt(np.maximum(0.0, 1.0 - x * x)), dj)
                    theta = (cross - y) / (dj * h)
                arms.append((other, np.where(other >= 0, 1.0, np.maximum(theta, _MIN_ARM))))
            ta, tb = arms[0][1], arms[1][1]
            diag += -2.0 / (ta * tb * h2)
            for other, t in arms:
                # a circle crossing carries u = 0: weight 0 on the pad slot
                inner = other >= 0
                cols.append(np.where(inner, other, m))
                weights.append(np.where(inner, 2.0 / (t * (ta + tb) * h2), 0.0))
        self._matrix = WindowTable(np.array(cols), np.array(weights))
        self._blocks = _block_lu(self._matrix, np.flatnonzero(np.diff(j)) + 1)

    # -- solving -------------------------------------------------------

    def solve(self, f) -> DirichletSolution:
        """Solve for one right side f (nodes,), or for the S columns of f
        (nodes, S) at once, each bitwise its own solve: the interval's
        cumulative sums run down each column, and the disk solves column by
        column (a block product of several columns may round otherwise)."""
        g = self.grid
        fv = np.asarray(f, dtype=float)
        if fv.ndim not in (1, 2) or fv.shape[0] != g.num_nodes:
            raise ValueError(f"solve_dirichlet: f has shape {fv.shape}, the grid needs "
                             f"({g.num_nodes},) or ({g.num_nodes}, S)")
        if not np.all(np.isfinite(fv)):
            raise NonFiniteLoad("solve_dirichlet: f is not finite")
        if g.dim == 1:
            u = self._solve_interval(fv)
            lap = g.derivative_matrix((2,)) @ u
            res = np.max(np.abs(lap[1:-1] - fv[1:-1]), axis=0)
        else:
            if fv.ndim == 1:
                u = _block_solve(self._blocks, fv)
            else:
                u = np.empty_like(fv)
                for j, col in enumerate(fv.T.copy()):  # contiguous, as a lone right side is
                    u[:, j] = _block_solve(self._blocks, col)
            if not np.all(np.isfinite(u)):
                raise RuntimeError(
                    "solve_dirichlet: factorization produced non-finite values "
                    "(matrix may be near-singular)"
                )
            res = np.max(np.abs(self._matrix @ u - fv), axis=0)
        return DirichletSolution(u, float(res) if fv.ndim == 1 else res)

    def _solve_interval(self, fv):
        # exact inverse of the interior three-point operator with u(+-1)=0:
        # delta_k = u_{k+1}-u_k satisfies delta_k = delta_0 + h^2 * cumsum(f),
        # down each column of fv (nodes,) or (nodes, S)
        g = self.grid
        h = np.longdouble(g.spacing)
        n = g.num_nodes
        # extended-precision accumulation keeps the roundtrip residual at
        # the 1e-12 level even on fine grids
        u = np.zeros(fv.shape, dtype=np.longdouble)
        partial = u[2:n]  # s_k = sum_{m<=k} f_m, then its partial sums, in place
        partial[:] = fv[1 : n - 1]
        np.cumsum(partial, axis=0, out=partial)
        np.cumsum(partial, axis=0, out=partial)
        delta0 = -h * h * partial[-1] / (n - 1)
        u[1] = delta0
        partial *= h * h
        partial += nodes_first(np.arange(2, n), fv.shape[1:]) * delta0
        u[n - 1] = 0.0
        return u.astype(float)


def _block_lu(matrix, starts):
    """Block LU of the disk's five-point matrix by lattice rows.

    matrix is the WindowTable of the matrix; starts are the first nodes of
    the lattice rows after the first.  Nodes run row by row, so row k is a
    run of consecutive unknowns, coupled (block tridiagonal) only to rows
    k-1 and k+1 through the blocks L_k and U_k.  With T_k its own block,
    S_k = T_k - L_k S_{k-1}^{-1} U_{k-1} is row k's Schur complement.  Each
    row keeps (its nodes, S_k^{-1}, S_k^{-1} L_k, S_k^{-1} U_k), for
    _block_solve.  No pivoting: the matrix is a diagonally dominant
    M-matrix.
    """
    m = matrix.cols.shape[1]
    bounds = [0, *starts.tolist(), m]
    blocks = []
    above = np.zeros((0, bounds[1]))  # S_{k-1}^{-1} U_{k-1}; none above row 0
    for lo, a, b, hi in zip([0] + bounds[:-2], bounds[:-1], bounds[1:], bounds[2:] + [m]):
        # row k's band of the matrix, over the columns of rows k-1, k and k+1
        band = np.zeros((b - a, hi - lo))
        cols, weights = matrix.cols[:, a:b], matrix.weights[:, a:b]
        live = cols < m  # a zero weight on the pad slot is no entry
        node = np.broadcast_to(np.arange(b - a), cols.shape)
        band[node[live], cols[live] - lo] = weights[live]
        lower, own, upper = band[:, :a - lo], band[:, a - lo:b - lo], band[:, b - lo:]
        inverse = np.linalg.inv(own - lower @ above)
        above = inverse @ upper
        blocks.append((slice(a, b), inverse, inverse @ lower, above))
    return blocks


def _block_solve(blocks, f):
    """u with A u = f, from _block_lu's blocks of A: forward through the
    rows y_k = S_k^{-1} (f_k - L_k y_{k-1}), then back u_k = y_k -
    S_k^{-1} U_k u_{k+1}."""
    ys, y = [], np.zeros(0)
    for rows, inverse, inverse_lower, _ in blocks:
        y = inverse @ f[rows] - inverse_lower @ y
        ys.append(y)
    u, below = np.empty(len(f)), np.zeros(0)
    for (rows, _, _, inverse_upper), y in zip(reversed(blocks), reversed(ys)):
        below = y - inverse_upper @ below
        u[rows] = below
    return u


def _solver_for(grid: Grid) -> PoissonSolver:
    return grid.cached("poisson_solver", lambda: PoissonSolver(grid))


def solve_dirichlet(grid: Grid, f) -> DirichletSolution:
    """Solve (Laplacian u) = f on the grid with u = 0 on the boundary."""
    return _solver_for(grid).solve(f)


# ---------------------------------------------------------------------------
# elliptic estimate monitors (recorded constants; never gate the solve)


def _supported_sample(grid, rng, *shape):
    """Seeded right sides supported in the 3/4-ball, as an array (nodes,
    *shape): a radial bump times c0 + c1 sin 3x + c2 x^2 (interval) or
    c0 + c1 sin(2x + y) + c2 xy (disk), one uniform(-1, 1) triple c per
    field, drawn in the C order of shape."""
    prof = nodes_first(radial_bump(grid, _MONITOR_SUPPORT, 4), shape)
    x = grid.coords[:, 0]
    xs = nodes_first(x, shape)
    c0, c1, c2 = np.moveaxis(rng.uniform(-1.0, 1.0, (*shape, 3)), -1, 0)
    if grid.dim == 1:
        wave = c0 + c1 * nodes_first(np.sin(3.0 * x), shape) + c2 * xs * xs
    else:
        y = grid.coords[:, 1]
        wave = c0 + c1 * nodes_first(np.sin(2.0 * x + y), shape) + c2 * xs * nodes_first(y, shape)
    return prof * wave


def elliptic_monitors(grid, samples=50, alpha=0.5, seed=0):
    """Record empirical constants of the interior-estimate hierarchy.

    Returns a dict with the largest observed ratios |u|_{m+2,a}/|f|_{m,a}
    over a corpus of right-hand sides supported in the 3/4-ball, plus a
    linearity defect.
    These are monitors only; nothing here gates a solve.

    The corpus is drawn up front in the seeded order and measured as
    stacks: the norms of f, one solve of every kept column and the norms
    of u each run once over the corpus (holder_norms' stacked form), and
    the linearity check reuses the solves of its two fields.  Each ratio
    is then the largest of its per-sample ratios over the corpus array,
    bitwise the value of one sample at a time.
    """
    rng = np.random.default_rng(seed)
    solver = _solver_for(grid)
    f = _supported_sample(grid, rng, samples)
    nf = holder_norms(ScalarField(grid, f), (0, 1, 2), alpha)
    kept = ~(nf[0] < 1e-14)
    f, nf = f[:, kept], {m: n[kept] for m, n in nf.items()}
    u = solver.solve(f).u
    nu = holder_norms(ScalarField(grid, u), (2, 3, 4), alpha)
    # linearity spot check on the last two corpus members
    lin = 0.0
    if f.shape[1] >= 2:
        a, b = 1.7, -0.4
        mixed = solver.solve(a * f[:, -2] + b * f[:, -1]).u
        sep = a * u[:, -2] + b * u[:, -1]
        scale = max(1.0, float(np.max(np.abs(sep))))
        lin = float(np.max(np.abs(mixed - sep))) / scale
    return {
        "schauder_ratio": largest(nu[2] / nf[0]),
        "higher_order_ratio_m1": largest(nu[3] / nf[1]),
        "higher_order_ratio_m2": largest(nu[4] / nf[2]),
        "linearity_defect": lin,
        "samples": samples,
        "alpha": alpha,
        "support_radius": _MONITOR_SUPPORT,
    }
