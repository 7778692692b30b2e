"""Chart grids, discrete fields, and the Hoelder-norm calculus.

A chart is the unit ball B_1(0) in R^n (n = 1 or 2) sampled on a uniform
Cartesian lattice of spacing h = 2/(N-1).  For n = 1 the nodes are the N
points of [-1, 1]; for n = 2 they are the lattice points inside the closed
unit disk (rows and columns are contiguous segments by convexity).  All
derivatives are 2nd-order stencils assembled once into cached sparse
matrices.  Hoelder seminorms are exact: the maximum of
|v(x)-v(y)| / |x-y|^alpha over all pairs of distinct nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

_EDGE_TOL = 1e-12
_MAX_ORDER = 4
_SWEEP_BLOCK = 1 << 15  # lattice slots differenced per block of the lag sweep


# ---------------------------------------------------------------------------
# fields


@dataclass
class ScalarField:
    """Scalar values at the grid nodes, shape (num_nodes,)."""

    grid: "Grid"
    values: np.ndarray

    def copy(self):
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VecField:
    """R^q-valued field, shape (num_nodes, q); q >= n(n+3)/2 for embeddings."""

    grid: "Grid"
    values: np.ndarray

    @property
    def q(self):
        return self.values.shape[1]

    def copy(self):
        return VecField(self.grid, self.values.copy())


@dataclass
class SymTensorField:
    """Symmetric 2-tensor field, n(n+1)/2 components in lex order (i <= j)."""

    grid: "Grid"
    values: np.ndarray

    def copy(self):
        return SymTensorField(self.grid, self.values.copy())


@dataclass
class HolderNorm:
    m: int
    alpha: float
    value: float


def sym_indices(dim):
    """Lex-ordered (i, j) pairs with i <= j for symmetric tensors."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


# ---------------------------------------------------------------------------
# stencil assembly


def _segment_triplets(ids, h, order):
    """COO triplets for a 1-d derivative along one contiguous segment.

    2nd-order central stencils inside, 2nd-order one-sided at the segment
    ends.  Segments shorter than the stencil width degrade: length 2 uses a
    first-order difference (order 1) or zeros (order 2); length 1 is zero.
    """
    rows, cols, vals = [], [], []
    k = len(ids)

    def put(r, c, v):
        rows.append(ids[r])
        cols.append(ids[c])
        vals.append(v)

    if order == 1:
        if k == 1:
            return rows, cols, vals
        if k == 2:
            for r in (0, 1):
                put(r, 0, -1.0 / h)
                put(r, 1, 1.0 / h)
            return rows, cols, vals
        put(0, 0, -1.5 / h)
        put(0, 1, 2.0 / h)
        put(0, 2, -0.5 / h)
        for r in range(1, k - 1):
            put(r, r - 1, -0.5 / h)
            put(r, r + 1, 0.5 / h)
        put(k - 1, k - 3, 0.5 / h)
        put(k - 1, k - 2, -2.0 / h)
        put(k - 1, k - 1, 1.5 / h)
        return rows, cols, vals

    if order == 2:
        h2 = h * h
        if k <= 2:
            return rows, cols, vals
        if k == 3:
            for r in range(3):
                put(r, 0, 1.0 / h2)
                put(r, 1, -2.0 / h2)
                put(r, 2, 1.0 / h2)
            return rows, cols, vals
        for r, step in ((0, 1), (k - 1, -1)):
            for off, coeff in zip((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0)):
                put(r, r + step * off, coeff / h2)
        for r in range(1, k - 1):
            put(r, r - 1, 1.0 / h2)
            put(r, r, -2.0 / h2)
            put(r, r + 1, 1.0 / h2)
        return rows, cols, vals

    raise ValueError(f"unsupported stencil order {order}")


# ---------------------------------------------------------------------------
# grid


# fewest nodes per axis a Grid accepts; scenario validation reads it too
MIN_RESOLUTION = 17


class Grid:
    """Uniform chart lattice with cached derivative operators.

    Parameters
    ----------
    dim : int
        Chart dimension, 1 or 2.
    resolution : int
        Nodes per axis N (spacing h = 2/(N-1)); N >= MIN_RESOLUTION.
    support_radii : (float, float)
        (R1, R2) with 0 < R1 < R2 < 1: inner radius that carries metric
        increments and outer radius that bounds perturbation supports.

    Hoelder seminorms (``quotient_max``) are exact maxima over all pairs of
    distinct nodes, at every resolution.
    """

    def __init__(self, dim, resolution, support_radii=(0.5, 0.75)):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got dim={dim}")
        if int(resolution) != resolution or resolution < MIN_RESOLUTION:
            raise ValueError(f"resolution must be an integer >= {MIN_RESOLUTION}, got resolution={resolution}")
        r1, r2 = float(support_radii[0]), float(support_radii[1])
        if not (0.0 < r1 < r2 < 1.0):
            raise ValueError(
                f"support_radii must satisfy 0 < R1 < R2 < 1, got support_radii=({r1}, {r2})"
            )
        self.dim = int(dim)
        self.resolution = int(resolution)
        self.spacing = 2.0 / (self.resolution - 1)
        self.support_radii = (r1, r2)

        self._build_nodes()
        self._deriv_cache = {}
        self._axis_ops = {}
        self._lag_cache = None

    # -- construction ------------------------------------------------------

    def _build_nodes(self):
        N, h = self.resolution, self.spacing
        axis = -1.0 + h * np.arange(N)
        if self.dim == 1:
            self.coords = axis[:, None].copy()
            self.num_nodes = N
            self.lattice_index = np.arange(N)[:, None]
            r = np.abs(axis)
            self.interior_mask = r < 1.0 - _EDGE_TOL
            self.boundary_idx = np.where(~self.interior_mask)[0]
            self.boundary_points = self.coords[self.boundary_idx]
            self.row_segments = [np.arange(N)]
            self.col_segments = []
            self.row_length = np.full(N, N)
            self.col_length = np.full(N, N)
            return

        xs, ys, ii, jj = [], [], [], []
        row_segments = []
        node_id = {}
        k = 0
        for j in range(N):
            y = axis[j]
            seg = []
            for i in range(N):
                x = axis[i]
                if x * x + y * y <= 1.0 + _EDGE_TOL:
                    xs.append(x)
                    ys.append(y)
                    ii.append(i)
                    jj.append(j)
                    node_id[(i, j)] = k
                    seg.append(k)
                    k += 1
            if seg:
                row_segments.append(np.asarray(seg))
        self.coords = np.column_stack([xs, ys])
        self.num_nodes = k
        self.lattice_index = np.column_stack([ii, jj])
        r = np.sqrt((self.coords**2).sum(axis=1))
        self.interior_mask = r < 1.0 - _EDGE_TOL
        self.boundary_idx = np.where(~self.interior_mask)[0]

        col_segments = []
        for i in range(N):
            col = [node_id[(i, j)] for j in range(N) if (i, j) in node_id]
            if col:
                col_segments.append(np.asarray(col))
        self.row_segments = row_segments
        self.col_segments = col_segments
        self.row_length = np.empty(k, dtype=int)
        self.col_length = np.empty(k, dtype=int)
        for seg in row_segments:
            self.row_length[seg] = len(seg)
        for seg in col_segments:
            self.col_length[seg] = len(seg)
        self._node_id = node_id

        # projected boundary points: circle crossings of the lattice lines
        # (where homogeneous Dirichlet data is applied by the disk solver)
        crossings = []
        for idx in range(k):
            if not self.interior_mask[idx]:
                continue
            x, y = self.coords[idx]
            for dx, dy in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
                xn, yn = x + dx, y + dy
                if xn * xn + yn * yn > 1.0 + _EDGE_TOL:
                    if dx != 0.0:
                        xc = math.copysign(math.sqrt(max(1.0 - y * y, 0.0)), dx)
                        crossings.append((xc, y))
                    else:
                        yc = math.copysign(math.sqrt(max(1.0 - x * x, 0.0)), dy)
                        crossings.append((x, yc))
        lattice_boundary = [tuple(p) for p in self.coords[self.boundary_idx]]
        self.boundary_points = np.asarray(sorted(set(crossings) | set(lattice_boundary)))

    # -- derivative operators ----------------------------------------------

    def _axis_matrix(self, axis, order):
        key = (axis, order)
        if key not in self._axis_ops:
            segs = self.row_segments if axis == 0 else self.col_segments
            if self.dim == 1:
                segs = self.row_segments
            rows, cols, vals = [], [], []
            for seg in segs:
                r, c, v = _segment_triplets(seg, self.spacing, order)
                rows += r
                cols += c
                vals += v
            m = sp.coo_matrix(
                (vals, (rows, cols)), shape=(self.num_nodes, self.num_nodes)
            ).tocsr()
            self._axis_ops[key] = m
        return self._axis_ops[key]

    def derivative_matrix(self, s):
        """Sparse operator for the multi-index s (tuple of per-axis orders)."""
        s = tuple(int(k) for k in s)
        if len(s) != self.dim:
            raise ValueError(f"multi-index s={s} has wrong length for dim={self.dim}")
        if any(k < 0 for k in s) or sum(s) > _MAX_ORDER:
            raise ValueError(f"unsupported derivative order s={s}; need 0 <= |s| <= {_MAX_ORDER}")
        if s in self._deriv_cache:
            return self._deriv_cache[s]
        op = None
        for axis, k in enumerate(s):
            while k > 0:
                step = 2 if k >= 2 else 1
                m = self._axis_matrix(axis, step)
                op = m if op is None else op @ m
                k -= step
        if op is None:
            op = sp.identity(self.num_nodes, format="csr")
        self._deriv_cache[s] = op
        return op

    # -- Hoelder seminorm ---------------------------------------------------

    def _lags(self):
        """Lattice offsets of the seminorm sweep, shortest first.

        Returns (size, slots, shifts, dist).  Node values go into the slots
        of a NaN-padded flat lattice of length size, in which the lattice
        offset of a node pair is a constant index shift; the padding holds
        every shifted slot that leaves the ball, so no shift wraps onto
        another node.  Each pair of nodes is reached by exactly one shift,
        of length dist.
        """
        if self._lag_cache is None:
            N = self.resolution
            if self.dim == 1:
                slots = np.arange(N)
                shifts = np.arange(1, N)
                dist2 = shifts**2
            else:
                width = 2 * N - 1
                slots = self.lattice_index[:, 1] * width + self.lattice_index[:, 0]
                slots -= slots[0]
                dj, di = np.meshgrid(np.arange(N), np.arange(1 - N, N), indexing="ij")
                dist2 = di * di + dj * dj
                # one offset of each +-pair, none longer than the diameter
                keep = ((dj > 0) | (di > 0)) & (dist2 <= (N - 1) ** 2)
                order = np.argsort(dist2[keep], kind="stable")
                shifts = (dj * width + di)[keep][order]
                dist2 = dist2[keep][order]
            size = slots[-1] + 1 + shifts.max()
            self._lag_cache = (size, slots, shifts, self.spacing * np.sqrt(dist2))
        return self._lag_cache

    def quotient_max(self, vals, alpha):
        """Exact max over all node pairs of |v(x)-v(y)| / |x-y|^alpha.

        Sweeps the lattice offsets shortest first, a block of offsets at a
        time, with one d^alpha per offset.  Stops once no longer offset can
        beat the running maximum: (max v - min v) / d^alpha <= best.
        """
        size, slots, shifts, dist = self._lags()
        osc = float(np.max(vals) - np.min(vals))
        padded = np.full(size, np.nan)
        padded[slots] = vals
        span = slots[-1] + 1
        # row s of `moved` is the node lattice moved by shift s
        moved = sliding_window_view(padded, span)
        step = max(1, _SWEEP_BLOCK // span)
        best = 0.0
        for k in range(0, len(shifts), step):
            dpow = dist[k:k + step] ** alpha
            if osc / dpow[0] <= best:
                break
            diff = moved[shifts[k:k + step]]
            diff -= padded[:span]
            np.abs(diff, out=diff)
            # NaN marks a slot off the ball; fmax skips it
            best = float(np.fmax.reduce(np.fmax.reduce(diff, axis=1) / dpow, initial=best))
        return best

    # -- misc ----------------------------------------------------------------

    def to_lattice(self, vals, fill=0.0):
        """Scatter node values onto the full (N, N) lattice (n=2 helper)."""
        if self.dim != 2:
            raise ValueError("to_lattice is a dim=2 helper")
        out = np.full((self.resolution, self.resolution), fill, dtype=float)
        out[self.lattice_index[:, 0], self.lattice_index[:, 1]] = vals
        return out

    def radius(self):
        return np.sqrt((self.coords**2).sum(axis=1))

    def scalar(self, values):
        return ScalarField(self, np.asarray(values, dtype=float))


def radial_bump(grid, radius, power):
    """Compactly supported profile (1 - r^2/radius^2)_+^power at the nodes."""
    r2 = (grid.coords**2).sum(axis=1)
    return np.clip(1.0 - r2 / radius**2, 0.0, None) ** power


def make_grid(dim, resolution, support_radii=(0.5, 0.75)):
    """Build a chart grid; see Grid for the field semantics."""
    return Grid(dim, resolution, support_radii)


# ---------------------------------------------------------------------------
# derivative / laplacian / norms


def derivative(fld, s):
    """Discrete partial derivative for multi-index s, |s| <= 4.

    Composition order within an axis applies the 2nd-derivative blocks first;
    across axes, higher axes are applied first (matters only at the h^2
    truncation level near boundaries).
    """
    op = fld.grid.derivative_matrix(s)
    return type(fld)(fld.grid, op @ fld.values)


def laplacian(fld):
    """Sum of per-axis second derivatives."""
    g = fld.grid
    if g.dim == 1:
        return derivative(fld, (2,))
    a = g.derivative_matrix((2, 0))
    b = g.derivative_matrix((0, 2))
    return type(fld)(g, a @ fld.values + b @ fld.values)


def _c0alpha(grid, vals, alpha):
    return float(np.max(np.abs(vals))) + grid.quotient_max(vals, alpha)


def _multi_indices(dim, m):
    if dim == 1:
        return [(m,)]
    return [(m - k, k) for k in range(m + 1)]


def holder_norm(fld, m, alpha):
    """Discrete C^{m,alpha} norm: C^{0,alpha} part plus all |s| = m parts.

    Vector and tensor fields are measured as the sum of their component
    norms.  Each seminorm is the exact maximum over all pairs of distinct
    nodes (Grid.quotient_max).
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"holder_norm configuration error: alpha must be in (0,1), got alpha={alpha}")
    if int(m) != m or m < 0 or m > _MAX_ORDER:
        raise ValueError(f"holder_norm configuration error: m must be an integer in [0,{_MAX_ORDER}], got m={m}")
    g = fld.grid
    vals = fld.values if fld.values.ndim == 2 else fld.values[:, None]
    total = 0.0
    for c in range(vals.shape[1]):
        comp = vals[:, c]
        total += _c0alpha(g, comp, alpha)
        if m > 0:
            for s in _multi_indices(g.dim, m):
                dv = g.derivative_matrix(s) @ comp
                total += _c0alpha(g, dv, alpha)
    return HolderNorm(int(m), float(alpha), float(total))


def monitor_recurrence(a0, C, sequence):
    """True iff every entry obeys the recurrence bound a0 + 2C (+1e-12)."""
    seq = np.asarray(sequence, dtype=float)
    return bool(np.all(seq <= a0 + 2.0 * C + 1e-12))


# ---------------------------------------------------------------------------
# inequality suite


def _random_scalar(grid, rng):
    x = grid.coords[:, 0]
    c = rng.uniform(-1.0, 1.0, 6)
    if grid.dim == 1:
        basis = [np.ones_like(x), x, x * x, np.sin(np.pi * x), np.cos(2.0 * x), np.sin(2.3 * x + 0.7)]
    else:
        y = grid.coords[:, 1]
        basis = [np.ones_like(x), x, y, np.sin(np.pi * x) * np.cos(y), x * y, np.cos(x + 2.0 * y)]
    return ScalarField(grid, sum(ci * bi for ci, bi in zip(c, basis)))


def _random_affine(grid, rng):
    """Per-axis affine polynomial (Leibniz-exact corpus member)."""
    x = grid.coords[:, 0]
    if grid.dim == 1:
        a, b = rng.uniform(-2.0, 2.0, 2)
        return ScalarField(grid, a + b * x)
    y = grid.coords[:, 1]
    a, b, c, d = rng.uniform(-2.0, 2.0, 4)
    return ScalarField(grid, a + b * x + c * y + d * x * y)


def _random_vec(grid, rng, q=2):
    cols = [_random_scalar(grid, rng).values for _ in range(q)]
    return VecField(grid, np.column_stack(cols))


def _leibniz_multi_indices(dim):
    # orders <= 2 only: the composed order-3/4 stencils amplify float64
    # roundoff by 1/h^4, which alone exceeds the 1e-10 consistency budget
    if dim == 1:
        return [(1,), (2,)]
    return [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]


def _sub_indices(beta):
    """All gamma <= beta componentwise."""
    ranges = [range(b + 1) for b in beta]
    out = [()]
    for r in ranges:
        out = [g + (k,) for g in out for k in r]
    return out


def leibniz_defect(grid, u, v, beta, mask=None):
    """sup |D^beta(uv) - binomial expansion| on the (optionally masked) nodes."""
    prod = ScalarField(grid, u.values * v.values)
    lhs = derivative(prod, beta).values
    rhs = np.zeros_like(lhs)
    for gamma in _sub_indices(beta):
        coeff = 1.0
        for bi, gi in zip(beta, gamma):
            coeff *= comb(bi, gi)
        rest = tuple(b - g for b, g in zip(beta, gamma))
        rhs += coeff * derivative(u, gamma).values * derivative(v, rest).values
    err = np.abs(lhs - rhs)
    if mask is not None:
        err = err[mask]
    return float(np.max(err)) if err.size else 0.0


def check_inequalities(grid, samples=100, alpha=0.5, seed=0):
    """Sampled verification of the discrete norm-calculus inequalities.

    Returns a report dict: exact product-inequality violations (must be 0),
    Leibniz consistency error on the polynomial-exact corpus, and finite
    witness constants for the embedding, three-term product, and bilinear
    bounds at m in {1, 2}.  Witnesses are empirical maxima, recorded rather
    than asserted against magic constants.
    """
    rng = np.random.default_rng(seed)
    report = {
        "product_violations": 0,
        "product_max_ratio": 0.0,
        "leibniz_max_err": 0.0,
        "embed_witness": 0.0,
        "samples": int(samples),
        "alpha": float(alpha),
    }
    for m in (1, 2):
        for key in (
            "scalar_threeterm", "scalar_bilinear", "vector_threeterm",
            "dot_threeterm", "dot_bilinear",
        ):
            report[f"{key}_witness_m{m}"] = 0.0

    if grid.dim == 2:
        mask = grid.radius() <= 0.75
    else:
        mask = None

    def c(f, m):
        return holder_norm(f, m, alpha).value

    for _ in range(samples):
        u = _random_scalar(grid, rng)
        v = _random_scalar(grid, rng)
        uv = ScalarField(grid, u.values * v.values)

        # product inequality, exact by shared-pair-set construction
        lhs = c(uv, 0)
        rhs = c(u, 0) * c(v, 0)
        ratio = lhs / rhs if rhs > 0 else 0.0
        report["product_max_ratio"] = max(report["product_max_ratio"], ratio)
        if lhs > rhs * (1.0 + 1e-12):
            report["product_violations"] += 1

        # embedding witness: |u|_{1,alpha} <= C |u|_{2,alpha}
        report["embed_witness"] = max(report["embed_witness"], c(u, 1) / max(c(u, 2), 1e-300))

        # Leibniz on the polynomial-exact corpus
        ua, va = _random_affine(grid, rng), _random_affine(grid, rng)
        for beta in _leibniz_multi_indices(grid.dim):
            scale = max(1.0, float(np.max(np.abs(ua.values * va.values))))
            report["leibniz_max_err"] = max(
                report["leibniz_max_err"], leibniz_defect(grid, ua, va, beta, mask) / scale
            )

        a = _random_scalar(grid, rng)
        w1 = _random_vec(grid, rng)
        w2 = _random_vec(grid, rng)
        au = VecField(grid, a.values[:, None] * w1.values)
        dot = ScalarField(grid, (w1.values * w2.values).sum(axis=1))

        for m in (1, 2):
            # bilinear witnesses
            report[f"scalar_bilinear_witness_m{m}"] = max(
                report[f"scalar_bilinear_witness_m{m}"], c(uv, m) / max(c(u, m) * c(v, m), 1e-300)
            )
            report[f"dot_bilinear_witness_m{m}"] = max(
                report[f"dot_bilinear_witness_m{m}"], c(dot, m) / max(c(w1, m) * c(w2, m), 1e-300)
            )
            # three-term witnesses: overshoot over the first two terms,
            # measured against the (m-1)-norm product
            over_scalar = c(uv, m) - c(u, 0) * c(v, m) - c(u, m) * c(v, 0)
            report[f"scalar_threeterm_witness_m{m}"] = max(
                report[f"scalar_threeterm_witness_m{m}"],
                max(over_scalar, 0.0) / max(c(u, m - 1) * c(v, m - 1), 1e-300),
            )
            over_vec = c(au, m) - c(a, 0) * c(w1, m) - c(a, m) * c(w1, 0)
            report[f"vector_threeterm_witness_m{m}"] = max(
                report[f"vector_threeterm_witness_m{m}"],
                max(over_vec, 0.0) / max(c(a, m - 1) * c(w1, m - 1), 1e-300),
            )
            over_dot = c(dot, m) - c(w1, 0) * c(w2, m) - c(w1, m) * c(w2, 0)
            report[f"dot_threeterm_witness_m{m}"] = max(
                report[f"dot_threeterm_witness_m{m}"],
                max(over_dot, 0.0) / max(c(w1, m - 1) * c(w2, m - 1), 1e-300),
            )

    return report
