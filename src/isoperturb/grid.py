"""Chart grids, discrete fields, and the Hoelder-norm calculus.

A chart is the unit ball B_1(0) in R^n (n = 1 or 2) sampled on a uniform
Cartesian lattice of spacing h = 2/(N-1).  For n = 1 the nodes are the N
points of [-1, 1]; for n = 2 they are the lattice points inside the closed
unit disk (each lattice row and column meets it in one contiguous line of
nodes, by convexity).  Hoelder seminorms are exact: the maximum of
|v(x)-v(y)| / |x-y|^alpha over all pairs of distinct nodes.

Every derivative weight in the package follows one rule: a node r of a
lattice line of k nodes reads the window of `width` nodes that starts at
clip(r - width//2, 0, k - width), with the exact weights of window_weights
(divided by h or h*h).  Zero weights are left out, and a line shorter than
the window gets no rows; on the disk those are only the one-node pole lines.
A stencil family is its two widths, for orders 1 and 2: SOLVER_WIDTHS =
(3, 4) gives the solver's 2nd-order stencils, central inside a line and
one-sided at its ends; verify.ORACLE_WIDTHS = (5, 6) gives the oracle's
4th-order ones.  Grid.stencil_operator gives the operator of any
multi-index as its family's per-axis tables and caches both.

The seminorm sweeps the lattice offsets shortest first and skips only the
offsets that two bounds rule out, so its result is the all-pairs maximum
bit for bit:

- above, |v(x)-v(y)| <= max v - min v, so once (max v - min v) / d^alpha
  <= best no longer offset can raise the maximum and the sweep stops;
- below (1-d only), |v(x+l)-v(x)| <= l*m1 with m1 the largest
  nearest-neighbour step, so an offset of l nodes with
  l*m1*(1 + 1e-12) / d^alpha <= best cannot raise it either.  The bound
  holds in exact arithmetic; the 1e-12 margin covers rounding, and a tie
  with best does not change a maximum.

Before it skips, a 1-d sweep that outlasts its first block seeds best with
the quotients of the pairs through argmax v and argmin v.  They are
quotients of real node pairs, computed as the sweep computes them (|dv|
first, then one division by d^alpha), so the seed is a value the sweep
itself could return.  The slope bound holds on the disk as well: for disk
nodes p and q one of the corners (p_x, q_y), (q_x, p_y) is a node, and both
legs of the L-path through it are row or column segments.  But there it
skips only about 8% of the lags, so 2-d sweeps do not use it.

Each derivative operator D^s is a Stencil: the per-axis CSROperator
tables (indptr, indices, data, numpy only) F_1, ..., F_k of its steps,
applied in turn, D^s x = F_1(F_2(...F_k x)).  The factors are listed axis 0
first, and within an axis the order-2 steps come before the order-1 step,
so F_k acts on x first: for s = (3,), D^s x = D_2(D_1 x); for s = (1, 1),
D_x(D_y x).  s = 0 has no factors and gives x + 0.0.  Each table is the
canonical CSR of scipy.sparse (columns sorted within a row, none repeated),
and F @ x sums each row's terms data[k] * x[indices[k]] from 0.0, left to
right in stored order, as csr_matvec does (and csr_matvecs column by column
for x of shape (nodes, q)), so every result but a NaN's sign is bitwise
scipy's; a NaN or inf in x reaches only the rows that read it.  @ runs
over the rows in order of length, one numpy pass per stored term.

Everything built from a grid alone (the tables and Stencils of every
stencil family, the sweep lattice, the Dirichlet solver) is kept in the
grid's one cache, Grid.cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, factorial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_EDGE_TOL = 1e-12
_MAX_ORDER = 4
_SWEEP_BLOCK = 1 << 15  # lattice slots differenced per block of the lag sweep
_SLOPE_MARGIN = 1.0 + 1e-12  # rounding slack on the 1-d slope bound l*m1/d^alpha


# ---------------------------------------------------------------------------
# fields


@dataclass
class ScalarField:
    """Scalar values at the grid nodes, shape (num_nodes,)."""

    grid: "Grid"
    values: np.ndarray


@dataclass
class VecField:
    """R^q-valued field, shape (num_nodes, q); q >= n(n+3)/2 for embeddings."""

    grid: "Grid"
    values: np.ndarray


@dataclass
class SymTensorField:
    """Symmetric 2-tensor field, n(n+1)/2 components in lex order (i <= j)."""

    grid: "Grid"
    values: np.ndarray


def sym_indices(dim):
    """Lex-ordered (i, j) pairs with i <= j for symmetric tensors."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


# ---------------------------------------------------------------------------
# operator tables


class CSROperator:
    """One per-axis stencil table in compressed sparse row form.

    Row i holds the weights data[indptr[i]:indptr[i+1]] at the columns
    indices[indptr[i]:indptr[i+1]], sorted.  A @ x sums in the order the
    module docstring states.
    """

    def __init__(self, indptr, indices, data):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._tiled = {}  # pass-table weights repeated for x of q columns, by q

    def __matmul__(self, x):
        x = np.asarray(x)
        order, inverse, cols, weights, passes = self._passes
        if x.ndim == 2:
            # a weight per element: numpy broadcasts over a short last axis slowly
            q = x.shape[1]
            if q not in self._tiled:
                self._tiled[q] = np.repeat(weights, q).reshape(-1, q)
            weights = self._tiled[q]
        with np.errstate(invalid="ignore", over="ignore"):
            terms = weights * x.take(cols, axis=0)
            acc = np.zeros(order.shape + x.shape[1:], dtype=terms.dtype)
            for lo, m in passes:
                acc[:m] += terms[lo:lo + m]
        return acc.take(inverse, axis=0)

    @cached_property
    def _passes(self):
        """The table @ reads: rows by descending length, so that the rows
        with a k-th stored entry are a prefix of that order.

        Returns (order, inverse, cols, weights, passes): order lists the
        rows, inverse puts them back, and pass k = (lo, m) adds the k-th
        terms weights[lo:lo+m] * x[cols[lo:lo+m]] to the first m rows of
        order.  Every row is summed from 0.0 in stored order, with no
        padding terms.
        """
        lengths = np.diff(self.indptr)
        order = np.argsort(-lengths, kind="stable")
        passes, at, lo = [], [], 0
        for k in range(int(lengths.max(initial=0))):
            m = int(np.count_nonzero(lengths > k))
            passes.append((lo, m))
            at.append(self.indptr[order[:m]] + k)
            lo += m
        at = np.concatenate(at) if at else np.zeros(0, dtype=np.intp)
        cols = self.indices[at].astype(np.intp)
        return order, np.argsort(order), cols, self.data[at], passes


class Stencil:
    """D^s as its per-axis tables F_1, ..., F_k (factors), applied in turn.

    D^s @ x = F_1 @ (F_2 @ (... F_k @ x)); with no factors (s = 0) it is
    x + 0.0, what the identity table gives.
    """

    def __init__(self, factors):
        self.factors = factors

    def __matmul__(self, x):
        if not self.factors:
            return np.asarray(x) + 0.0
        for f in reversed(self.factors):
            x = f @ x
        return x


# ---------------------------------------------------------------------------
# stencil assembly

# (order-1, order-2) window widths of the solver's stencils: 2nd-order
# central inside a line, 2nd-order one-sided at its ends
SOLVER_WIDTHS = (3, 4)


@lru_cache(maxsize=None)
def window_weights(offsets, order):
    """Exact weights of the order-th derivative at 0 on integer offsets.

    offsets is a tuple.  The weight of o_j is order! times the x^order
    coefficient of prod_{i != j} (x - o_i), over prod_{i != j} (o_j - o_i):
    the derivative of the Lagrange basis polynomial of o_j, so the stencil
    is exact on polynomials of degree < len(offsets).  Both parts are Python
    integers, and one true division rounds each weight correctly.
    """
    weights = []
    for j, oj in enumerate(offsets):
        poly, den = [1], 1  # coefficients of prod (x - o_i), lowest degree first
        for i, oi in enumerate(offsets):
            if i != j:
                poly = [b - oi * a for a, b in zip(poly + [0], [0] + poly)]
                den *= oj - oi
        weights.append(factorial(order) * poly[order] / den)
    return tuple(weights)


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

    Hoelder seminorms (``quotient_max``) are exact maxima over all pairs of
    distinct nodes, at every resolution.
    """

    def __init__(self, dim, resolution):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got dim={dim}")
        if int(resolution) != resolution or resolution < MIN_RESOLUTION:
            raise ValueError(f"resolution must be an integer >= {MIN_RESOLUTION}, got resolution={resolution}")
        self.dim = int(dim)
        self.resolution = int(resolution)
        self.spacing = 2.0 / (self.resolution - 1)

        self._build_nodes()
        self._cache = {}

    def cached(self, key, build):
        """The value stored under key, built by build() on first use.

        The grid's one store for what is computed from the grid alone.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- construction ------------------------------------------------------

    def _build_nodes(self):
        N, h = self.resolution, self.spacing
        axis = -1.0 + h * np.arange(N)
        self.axis = axis  # node coordinates along each lattice axis
        if self.dim == 1:
            self.coords = axis[:, None].copy()
            self.num_nodes = N
            self.lattice_index = np.arange(N)[:, None]
            self.node_index = np.arange(N)
            self.interior_mask = np.abs(axis) < 1.0 - _EDGE_TOL
            return

        sq = axis * axis
        # nodes in row-major order: rows of constant y, x ascending in each
        jj, ii = np.nonzero(sq[:, None] + sq[None, :] <= 1.0 + _EDGE_TOL)
        self.coords = np.column_stack([axis[ii], axis[jj]])
        self.num_nodes = len(ii)
        self.lattice_index = np.column_stack([ii, jj])
        # node_index[i, j] is the node at lattice point (i, j), -1 off the disk
        self.node_index = np.full((N, N), -1)
        self.node_index[ii, jj] = np.arange(self.num_nodes)
        r = np.sqrt((self.coords**2).sum(axis=1))
        self.interior_mask = r < 1.0 - _EDGE_TOL

    # -- derivative operators ----------------------------------------------

    def derivative_matrix(self, s):
        """The solver's Stencil for the multi-index s (tuple of per-axis orders)."""
        s = tuple(int(k) for k in s)
        if len(s) != self.dim:
            raise ValueError(f"multi-index s={s} has wrong length for dim={self.dim}")
        if any(k < 0 for k in s) or sum(s) > _MAX_ORDER:
            raise ValueError(f"unsupported derivative order s={s}; need 0 <= |s| <= {_MAX_ORDER}")
        return self.stencil_operator(SOLVER_WIDTHS, s)

    def stencil_operator(self, widths, s):
        """Cached Stencil of the multi-index s in one stencil family.

        A family is its window widths (order-1, order-2): SOLVER_WIDTHS for
        the solver, verify.ORACLE_WIDTHS for the oracle.  The factors are
        the cached per-axis tables, in the order the module docstring
        states.
        """
        def factors():
            out = []
            for axis, k in enumerate(s):
                while k > 0:
                    step = 2 if k >= 2 else 1
                    width = widths[step - 1]
                    out.append(self.cached((widths, axis, step), lambda: self._assemble(width, axis, step)))
                    k -= step
            return Stencil(tuple(out))

        return self.cached((widths, s), factors)

    def _assemble(self, width, axis, order):
        """Canonical table of the order-derivative along axis on windows of width nodes.

        Node r of a lattice line of k nodes reads the width nodes from
        clip(r - width//2, 0, k - width) on, with window_weights; zero
        weights are left out, and a line shorter than width gets no rows.
        The nodes are grouped by their window's first offset (at most width
        groups), and each weight of each group is placed as one array block;
        the blocks are then sorted by row and column.
        """
        at = self.lattice_index
        on = self.node_index >= 0
        line = tuple(np.delete(at, axis, axis=1).T)  # the node's line, by its other coordinates
        length = on.sum(axis=axis)[line]
        pos = at[:, axis] - on.argmax(axis=axis)[line]
        live = length >= width
        first = np.clip(pos - width // 2, 0, length - width) - pos
        scale = self.spacing if order == 1 else self.spacing * self.spacing
        rows, cols, vals = [], [], []
        for lo in range(1 - width, 1):  # a window's first offset, from the node
            nodes = np.flatnonzero(live & (first == lo))
            offsets = tuple(range(lo, lo + width))
            for off, w in zip(offsets, window_weights(offsets, order)):
                if w:
                    target = at[nodes]
                    target[:, axis] += off
                    rows.append(nodes)
                    cols.append(self.node_index[tuple(target.T)])
                    vals.append(np.full(len(nodes), w / scale))
        rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
        by_row = np.lexsort((cols, rows))  # a row's offsets are distinct: no duplicates
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int32)  # int32, as scipy.sparse stores them
        np.cumsum(np.bincount(rows, minlength=self.num_nodes), out=indptr[1:])
        return CSROperator(indptr, cols[by_row].astype(np.int32), vals[by_row])

    # -- Hoelder seminorm ---------------------------------------------------

    def _lags(self):
        """The grid's sweep lattice and its offsets, shortest first.

        Returns (padded, moved, slots, shifts, dist), built once per grid.
        padded is a NaN-padded flat lattice in which the lattice offset of
        a node pair is a constant index shift; node values go into its
        slots, and the padding holds every shifted slot that leaves the
        ball, so no shift wraps onto another node.  moved is its sliding
        window view: row s is the node lattice moved by shift s.  Only the
        slots are ever written, so the padding stays NaN.  Each pair of
        nodes is reached by exactly one shift, of length dist.
        """
        return self.cached("lags", self._build_lags)

    def _build_lags(self):
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
        padded = np.full(slots[-1] + 1 + shifts.max(), np.nan)
        moved = sliding_window_view(padded, slots[-1] + 1)
        return padded, moved, slots, shifts, self.spacing * np.sqrt(dist2)

    def _lag_powers(self, alpha):
        """(d^alpha, lag/d^alpha) for the offsets of _lags(), once per alpha.

        lag is an offset's length in nodes, so lag/d^alpha times the largest
        nearest-neighbour step bounds every quotient at that offset; only
        1-d sweeps use it, and on the disk it is None.
        """
        def build():
            shifts, dist = self._lags()[3:]
            dpow = dist**alpha
            return dpow, shifts / dpow if self.dim == 1 else None

        return self.cached(("lag_powers", alpha), build)

    def quotient_max(self, vals, alpha):
        """Exact max over all node pairs of |v(x)-v(y)| / |x-y|^alpha.

        Writes vals into the node slots of the grid's sweep lattice (see
        _lags) and sweeps the lattice offsets shortest first, a block of
        offsets at a time, with one d^alpha per offset.  Stops once no
        longer offset can beat the running maximum:
        (max v - min v) / d^alpha <= best.

        A 1-d sweep that goes past its first block seeds best with the
        quotients of every pair through argmax v and through argmin v, then
        skips the short offsets the slope bound rules out:
        lag * m1 * (1 + 1e-12) / d^alpha <= best, m1 = max |v[k+1] - v[k]|.
        Both bounds hold in exact arithmetic and the seed is a pair quotient
        computed as the sweep computes it, so the result is bit-identical
        to the sweep over every offset (see the module docstring).
        """
        padded, moved, slots, shifts, _ = self._lags()
        dpow, slope = self._lag_powers(alpha)
        osc = float(np.max(vals) - np.min(vals))
        padded[slots] = vals
        span = moved.shape[1]
        step = max(1, _SWEEP_BLOCK // span)
        best, k = 0.0, 0
        while k < len(shifts) and osc / dpow[k] > best:
            if k == step and slope is not None:
                # past the first block: seed, then skip what the slope bound rules out
                best = max(best, _extrema_seed(vals, dpow, slots))
                live = slope[k:] * (m1 * _SLOPE_MARGIN) > best
                k += int(np.argmax(live)) if live.any() else len(live)
                if k == len(shifts) or osc / dpow[k] <= best:
                    break
            block = slice(k, k + step)
            diff = moved[shifts[block]]
            diff -= padded[:span]
            np.abs(diff, out=diff)
            # NaN marks a slot off the ball; fmax skips it
            lag_max = np.fmax.reduce(diff, axis=1)
            if k == 0:
                m1 = float(lag_max[0])  # in 1-d the first offset is one node: max |v[k+1] - v[k]|
            best = float(np.fmax.reduce(lag_max / dpow[block], initial=best))
            k += step
        return best

    # -- misc ----------------------------------------------------------------

    def to_lattice(self, vals):
        """Scatter node values (nodes, ...) onto the zero-filled (N,)*dim lattice."""
        out = np.zeros((self.resolution,) * self.dim + np.shape(vals)[1:])
        out[tuple(self.lattice_index.T)] = vals
        return out

    def radius(self):
        return np.sqrt((self.coords**2).sum(axis=1))


def _extrema_seed(vals, dpow, nodes):
    """Largest 1-d quotient over the pairs through argmax vals and argmin vals.

    Each pair is |v[j] - v[i]| / dpow[|j - i| - 1], the value the sweep takes
    for it.  The pair of a node with itself reads 0 / dpow[-1] = 0.
    """
    ends = np.array([[np.argmax(vals)], [np.argmin(vals)]])
    return float(np.max(np.abs(vals - vals[ends]) / dpow[np.abs(nodes - ends) - 1]))


def radial_bump(grid, radius, power):
    """Compactly supported profile (1 - r^2/radius^2)_+^power at the nodes."""
    r2 = (grid.coords**2).sum(axis=1)
    return np.clip(1.0 - r2 / radius**2, 0.0, None) ** power


def make_grid(dim, resolution):
    """Build a chart grid; see Grid for the field semantics."""
    return Grid(dim, resolution)


# ---------------------------------------------------------------------------
# derivative / laplacian / norms


def derivative(fld, s):
    """Discrete partial derivative for multi-index s, |s| <= 4.

    The per-axis tables act in the order the module docstring states (it
    matters only at the h^2 truncation level near boundaries).
    """
    op = fld.grid.derivative_matrix(s)
    return type(fld)(fld.grid, op @ fld.values)


def laplacian(fld):
    """Discrete Laplacian: D_xx @ x + D_yy @ x on the disk, D_xx @ x in 1-d."""
    g = fld.grid
    if g.dim == 1:
        return type(fld)(g, g.derivative_matrix((2,)) @ fld.values)
    return type(fld)(g, g.derivative_matrix((2, 0)) @ fld.values + g.derivative_matrix((0, 2)) @ fld.values)


def _c0alpha(grid, vals, alpha):
    return float(np.max(np.abs(vals))) + grid.quotient_max(vals, alpha)


def multi_indices(dim, m):
    """The multi-indices s with |s| = m, in the order holder_norms sums them."""
    if dim == 1:
        return [(m,)]
    return [(m - k, k) for k in range(m + 1)]


def holder_norms(fld, orders, alpha):
    """Discrete C^{m,alpha} norms of fld for every m in orders, as {m: value}.

    The C^{m,alpha} norm is the C^{0,alpha} part plus all |s| = m parts.
    Vector and tensor fields are measured as the sum of their component
    norms.  Each seminorm is the exact maximum over all pairs of distinct
    nodes (Grid.quotient_max), and each is taken once: the C^{0,alpha} part
    of a component is shared by every order, and each derivative is applied
    to all components at once.  Every order is summed as if alone:
    component by component, the C^{0,alpha} part first, then the |s| = m
    parts in multi_indices order.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"holder_norm configuration error: alpha must be in (0,1), got alpha={alpha}")
    for m in orders:
        if int(m) != m or m < 0 or m > _MAX_ORDER:
            raise ValueError(f"holder_norm configuration error: m must be an integer in [0,{_MAX_ORDER}], got m={m}")
    g = fld.grid
    vals = fld.values if fld.values.ndim == 2 else fld.values[:, None]
    totals = dict.fromkeys((int(m) for m in orders), 0.0)
    derivs = {s: g.derivative_matrix(s) @ vals for m in totals for s in multi_indices(g.dim, m) if m > 0}
    for c in range(vals.shape[1]):
        base = _c0alpha(g, vals[:, c], alpha)
        for m in totals:
            totals[m] += base
            if m > 0:
                for s in multi_indices(g.dim, m):
                    totals[m] += _c0alpha(g, derivs[s][:, c], alpha)
    return totals


def holder_norm(fld, m, alpha):
    """Discrete C^{m,alpha} norm of fld; see holder_norms."""
    return holder_norms(fld, (m,), alpha)[m]


def monitor_recurrence(a0, C, sequence):
    """True iff every entry obeys the recurrence bound a0 + 2C (+1e-12)."""
    seq = np.asarray(sequence, dtype=float)
    return bool(np.all(seq <= a0 + 2.0 * C + 1e-12))


# ---------------------------------------------------------------------------
# inequality suite

# Three seeded corpora stay apart: _random_scalar (six terms, for
# check_inequalities), random_waves (continuity_witnesses) and
# poisson._supported_sample (elliptic_monitors).  Their bases, draw counts
# and operation orders differ (c2*x*y is (c2*x)*y, c2*x*x is (c2*x)*x), so
# one shared basis would move the last bits of every frozen report.


def _random_scalar(grid, rng):
    x = grid.coords[:, 0]
    c = rng.uniform(-1.0, 1.0, 6)
    if grid.dim == 1:
        basis = [np.ones_like(x), x, x * x, np.sin(np.pi * x), np.cos(2.0 * x), np.sin(2.3 * x + 0.7)]
    else:
        y = grid.coords[:, 1]
        basis = [np.ones_like(x), x, y, np.sin(np.pi * x) * np.cos(y), x * y, np.cos(x + 2.0 * y)]
    return ScalarField(grid, sum(ci * bi for ci, bi in zip(c, basis)))


def random_waves(grid, rng, count):
    """count seeded corpus columns c0 + c1 sin 2x + c2 x (interval) or
    c0 + c1 sin(x + y) + c2 xy (disk), one uniform(-1, 1) triple c each."""
    coef = rng.uniform(-1.0, 1.0, (count, 3))
    x = grid.coords[:, 0]
    if grid.dim == 1:
        wave = np.sin(2.0 * x)
        return np.column_stack([a + b * wave + c * x for a, b, c in coef])
    y = grid.coords[:, 1]
    wave = np.sin(x + y)
    return np.column_stack([a + b * wave + c * x * y for a, b, c in coef])


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


def _sub_indices(beta):
    """All gamma <= beta componentwise."""
    ranges = [range(b + 1) for b in beta]
    out = [()]
    for r in ranges:
        out = [g + (k,) for g in out for k in r]
    return out


def leibniz_defect(grid, u, v, beta, mask=None):
    """sup |D^beta(uv) - binomial expansion| on the (optionally masked) nodes.

    u and v go in as the two columns of one field, so each D^gamma
    (gamma <= beta) is applied once.
    """
    lhs = derivative(ScalarField(grid, u.values * v.values), beta).values
    both = VecField(grid, np.column_stack([u.values, v.values]))
    d = {gamma: derivative(both, gamma).values for gamma in _sub_indices(beta)}
    rhs = np.zeros_like(lhs)
    for gamma in _sub_indices(beta):
        coeff = 1.0
        for bi, gi in zip(beta, gamma):
            coeff *= comb(bi, gi)
        rest = tuple(b - g for b, g in zip(beta, gamma))
        rhs += coeff * d[gamma][:, 0] * d[rest][:, 1]
    err = np.abs(lhs - rhs)
    if mask is not None:
        err = err[mask]
    return float(np.max(err)) if err.size else 0.0


def check_inequalities(grid, samples=100, alpha=0.5, seed=0):
    """Sampled verification of the discrete norm-calculus inequalities.

    Returns a report dict: exact product-inequality violations (must be 0),
    Leibniz consistency error on the polynomial-exact corpus, and finite
    witness constants for the embedding and bilinear bounds at m in {1, 2}.
    Witnesses are empirical maxima, recorded rather than asserted against
    magic constants.
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
        for key in ("scalar_bilinear", "dot_bilinear"):
            report[f"{key}_witness_m{m}"] = 0.0

    if grid.dim == 2:
        mask = grid.radius() <= 0.75
    else:
        mask = None

    for _ in range(samples):
        u = _random_scalar(grid, rng)
        v = _random_scalar(grid, rng)
        ua, va = _random_affine(grid, rng), _random_affine(grid, rng)
        _random_scalar(grid, rng)  # discarded: keeps w1 and w2 on their seeded draws
        w1 = _random_vec(grid, rng)
        w2 = _random_vec(grid, rng)
        uv = ScalarField(grid, u.values * v.values)
        dot = ScalarField(grid, (w1.values * w2.values).sum(axis=1))
        # one table of C^{0,alpha}, C^{1,alpha}, C^{2,alpha} norms per field;
        # every witness below reads it
        nu, nv, nuv, nw1, nw2, ndot = (
            holder_norms(f, (0, 1, 2), alpha) for f in (u, v, uv, w1, w2, dot)
        )

        # product inequality, exact by shared-pair-set construction
        lhs = nuv[0]
        rhs = nu[0] * nv[0]
        ratio = lhs / rhs if rhs > 0 else 0.0
        report["product_max_ratio"] = max(report["product_max_ratio"], ratio)
        if lhs > rhs * (1.0 + 1e-12):
            report["product_violations"] += 1

        # embedding witness: |u|_{1,alpha} <= C |u|_{2,alpha}
        report["embed_witness"] = max(report["embed_witness"], nu[1] / max(nu[2], 1e-300))

        # Leibniz on the polynomial-exact corpus, at orders <= 2 only: the
        # composed order-3/4 stencils amplify float64 roundoff by 1/h^4,
        # which alone exceeds the 1e-10 consistency budget
        for beta in multi_indices(grid.dim, 1) + multi_indices(grid.dim, 2):
            scale = max(1.0, float(np.max(np.abs(ua.values * va.values))))
            report["leibniz_max_err"] = max(
                report["leibniz_max_err"], leibniz_defect(grid, ua, va, beta, mask) / scale
            )

        for m in (1, 2):
            report[f"scalar_bilinear_witness_m{m}"] = max(
                report[f"scalar_bilinear_witness_m{m}"], nuv[m] / max(nu[m] * nv[m], 1e-300)
            )
            report[f"dot_bilinear_witness_m{m}"] = max(
                report[f"dot_bilinear_witness_m{m}"], ndot[m] / max(nw1[m] * nw2[m], 1e-300)
            )

    return report
