"""Chart grids, discrete fields, and the Hoelder-norm calculus.

A field is its (nodes,) or (nodes, k) array, read on the grid its caller
already holds; ScalarField and VecField pair it with a grid only to be
measured (holder_norm, holder_norms, verify.isometry_residual).

A chart is the unit ball B_1(0) in R^n (n = 1 or 2) sampled on a uniform
Cartesian lattice of spacing h = 2/(N-1).  For n = 1 the nodes are the N
points of [-1, 1]; for n = 2 they are the lattice points of the open unit
disk, r < 1 - 1e-12 (each lattice row and column meets it in one contiguous
line of nodes, by convexity).  No node sits on the circle: the Dirichlet
solver's u = 0 there enters through the arms that the circle cuts.  So the
shortest lines, at |y| = 1 - h or |x| = 1 - h, span |t| < h sqrt(N - 2) and
hold at least 7 nodes for every N >= 17, more than the widest stencil
window.  Hoelder seminorms are exact: the maximum of |v(x)-v(y)| / |x-y|^alpha
over all pairs of distinct nodes.

Every derivative weight in the package follows one rule: a node r of a
lattice line of k nodes reads the window of `width` nodes that starts at
clip(r - width//2, 0, k - width), with the exact weights of window_weights
(divided by h or h*h).  Every row carries its full window, so every D^s
is exact to its order at every node.
A stencil family is its two widths, for orders 1 and 2: SOLVER_WIDTHS =
(3, 4) gives the solver's 2nd-order stencils, central inside a line and
one-sided at its ends; verify.ORACLE_WIDTHS = (5, 6) gives the oracle's
4th-order ones.  Grid.stencil_operator gives the operator of any
multi-index as its family's per-axis tables and caches both.

The seminorm sweeps the lattice offsets shortest first and skips only the
offsets that three bounds rule out, so its result is the all-pairs maximum
bit for bit:

- above, |v(x)-v(y)| <= max v - min v, so once (max v - min v) / d^alpha
  <= best no longer offset can raise the maximum and the sweep stops;
- above, per lag (1-d only), from cell extrema: the nodes fall into at
  most 64 cells of b consecutive nodes, and a pair l nodes apart lies in
  two cells l//b or l//b + 1 apart, so its |dv| is at most the largest
  gap, max of one cell minus min of the other, over the cell pairs that
  far apart.  Once the largest such bound over d^alpha at every lag from
  the current one on is <= best, the sweep stops.  Float subtraction and
  division round monotonically, so each bound, as computed, is at least
  every quotient the sweep computes at its lag, and it needs no margin;
- below (1-d only), |v(x+l)-v(x)| <= l*m1 with m1 the largest
  nearest-neighbour step, so an offset of l nodes with
  l*m1*(1 + 1e-12) / d^alpha <= best cannot raise it either.  The bound
  holds in exact arithmetic; the 1e-12 margin covers rounding, and a tie
  with best does not change a maximum.

The two 1-d bounds start once a sweep outlasts its first block.  Before it
skips, such a sweep seeds best with the quotients of the pairs through
argmax v and argmin v.  They are
quotients of real node pairs, computed as the sweep computes them (|dv|
first, then one division by d^alpha), so the seed is a value the sweep
itself could return.  The slope bound holds on the disk as well: for disk
nodes p and q one of the corners (p_x, q_y), (q_x, p_y) is a node, and both
legs of the L-path through it are row or column segments.  But there it
skips only about 8% of the lags, so 2-d sweeps do not use it.

Each derivative operator D^s is a Stencil: the per-axis WindowTables
F_1, ..., F_k of its steps (numpy only), applied in turn,
D^s x = F_1(F_2(...F_k x)).  The factors are listed axis 0 first, and
within an axis the order-2 steps come before the order-1 step, so F_k acts
on x first: for s = (3,), D^s x = D_2(D_1 x); for s = (1, 1), D_x(D_y x).
s = 0 has no factors and gives x + 0.0.  A table is the rule itself: two
(width, nodes) arrays, each node's window as node indices (cols, ascending)
and its weights, where a zero weight reads column num_nodes, a pad slot
that holds 0.0.  F @ x sums each node's terms weights[k] * x[cols[k]] from
+0.0, k = 0, 1, ... in turn.  On the nonzero terms that is csr_matvec's
order (and csr_matvecs' column by column for x of shape (nodes, q)), and a
+-0.0 term cannot change a sum that starts from +0.0, so every result but
a NaN's sign is bitwise scipy's on the table's nonzero triplets; a NaN or
inf in x reaches only the rows that weigh it.

Everything built from a grid alone (the tables and Stencils of every
stencil family, the sweep lattice, the 1-d sweep's block buffer and cell
table, the Dirichlet solver) is kept in the grid's one cache, Grid.cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np
from numpy.lib.stride_tricks import as_strided

_EDGE_TOL = 1e-12
_MAX_ORDER = 4
_SWEEP_BLOCK = 1 << 15  # flat lattice slots spanned per block of the lag sweep
_SLOPE_MARGIN = 1.0 + 1e-12  # rounding slack on the 1-d slope bound l*m1/d^alpha
# Cells of the 1-d tail bound: their (cells, 2 cells) gap table is at most
# 64 KiB, and the whole bound costs less than one block of the sweep at
# N = 801 (about 30 against 42 us).  The bound at a lag also counts pairs
# up to two cells longer, so more cells tighten it, at a quadratic cost.
_TAIL_CELLS = 64
# A sweep builds the tail bound only if the extrema bound leaves it more
# blocks than this: below that the bound cannot save its own cost.
_TAIL_BLOCKS = 3


# ---------------------------------------------------------------------------
# fields


@dataclass
class ScalarField:
    """Scalar values at the grid nodes, shape (num_nodes,), to be measured."""

    grid: "Grid"
    values: np.ndarray


@dataclass
class VecField:
    """Columns of values at the grid nodes, shape (num_nodes, k), to be measured."""

    grid: "Grid"
    values: np.ndarray


def sym_indices(dim):
    """Lex-ordered (i, j) pairs with i <= j for symmetric tensors."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


# ---------------------------------------------------------------------------
# operator tables


class WindowTable:
    """One per-axis stencil table as its nodes' windows.

    cols and weights are (width, nodes) arrays: node i's row is
    sum_k weights[k, i] * x[cols[k, i]].  A zero weight reads column
    num_nodes, a pad slot that @ appends to x as 0.0.  A @ x sums in the
    order the module docstring states.
    """

    def __init__(self, cols, weights):
        self.cols = cols
        self.weights = weights
        self._tiled = {}  # weights repeated for x of q columns, by q

    def __matmul__(self, x):
        x = np.asarray(x)
        weights = self.weights
        if x.ndim == 2:
            # a weight per element: numpy broadcasts over a short last axis slowly
            q = x.shape[1]
            if q not in self._tiled:
                self._tiled[q] = np.repeat(weights, q).reshape(*weights.shape, q)
            weights = self._tiled[q]
        padded = np.concatenate([x, np.zeros((1,) + x.shape[1:])])
        with np.errstate(invalid="ignore", over="ignore"):
            terms = padded.take(self.cols, axis=0)
            terms *= weights
            acc = np.zeros(terms.shape[1:], dtype=terms.dtype)
            for term in terms:
                acc += term
        return acc


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
            return

        sq = axis * axis
        # the open disk (see the module docstring), nodes in row-major
        # order: rows of constant y, x ascending in each
        jj, ii = np.nonzero(np.sqrt(sq[:, None] + sq[None, :]) < 1.0 - _EDGE_TOL)
        self.coords = np.column_stack([axis[ii], axis[jj]])
        self.num_nodes = len(ii)
        self.lattice_index = np.column_stack([ii, jj])
        # node_index[i, j] is the node at lattice point (i, j), -1 off the disk
        self.node_index = np.full((N, N), -1)
        self.node_index[ii, jj] = np.arange(self.num_nodes)

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
        """WindowTable of the order-derivative along axis on windows of width nodes.

        Node r of a lattice line of k nodes reads the width nodes from
        clip(r - width//2, 0, k - width) on, with window_weights; a zero
        weight reads the pad slot instead.  A line shorter than width
        raises ValueError (on the open disk none is; see the module
        docstring).
        """
        at = self.lattice_index
        on = self.node_index >= 0
        line = tuple(np.delete(at, axis, axis=1).T)  # the node's line, by its other coordinates
        length = on.sum(axis=axis)[line]
        if length.min() < width:
            raise ValueError(f"a lattice line of {length.min()} nodes is shorter than the window of {width}")
        pos = at[:, axis] - on.argmax(axis=axis)[line]
        first = np.clip(pos - width // 2, 0, length - width) - pos  # the window's first offset, from the node
        scale = self.spacing if order == 1 else self.spacing * self.spacing
        # one row of weights per first offset, 1 - width .. 0
        block = np.array([window_weights(tuple(range(lo, lo + width)), order) for lo in range(1 - width, 1)]) / scale
        weights = block[first + width - 1].T
        target = list(at.T)
        target[axis] = target[axis] + first + np.arange(width)[:, None]
        cols = self.node_index[tuple(target)]
        cols[weights == 0.0] = self.num_nodes
        return WindowTable(cols, weights)

    # -- Hoelder seminorm ---------------------------------------------------

    def _lags(self):
        """The grid's sweep lattice and its offsets, shortest first.

        Returns (padded, moved, slots, shifts, dist), built once per grid.
        padded is a NaN-padded flat lattice in which the lattice offset of
        a node pair is a constant index shift; node values go into its
        slots, and the padding holds every shifted slot that leaves the
        ball, so no shift wraps onto another node.  moved is its strided
        view: moved[s] is the nodes' bounding box of lattice points (rows
        of constant y in 2-d), moved by shift s.  Only the slots are ever
        written, so the padding stays NaN.  Each pair of nodes is reached
        by exactly one shift, of length dist.
        """
        return self.cached("lags", self._build_lags)

    def _build_lags(self):
        N = self.resolution
        at = self.lattice_index - self.lattice_index.min(axis=0)  # from the bounding box's corner
        if self.dim == 1:
            steps = np.array([1])
            shifts = np.arange(1, N)
            dist2 = shifts**2
        else:
            # rows of 2N - 1 slots: a shift that leaves a row's nodes lands in padding
            steps = np.array([1, 2 * N - 1])
            dj, di = np.meshgrid(np.arange(N), np.arange(1 - N, N), indexing="ij")
            dist2 = di * di + dj * dj
            # one offset of each +-pair, none longer than the diameter
            keep = ((dj > 0) | (di > 0)) & (dist2 <= (N - 1) ** 2)
            order = np.argsort(dist2[keep], kind="stable")
            shifts = (dj * steps[1] + di)[keep][order]
            dist2 = dist2[keep][order]
        slots = at @ steps
        box = at.max(axis=0) + 1
        padded = np.full((box - 1) @ steps + 1 + shifts.max(), np.nan)
        moved = as_strided(padded, shape=(shifts.max() + 1, *box[::-1]),
                           strides=padded.strides * np.array([1, *steps[::-1]]), writeable=False)
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

    def _lag_gaps(self, vals):
        """Per 1-d lag l = k + 1, a bound gaps[k] >= |v[i+l] - v[i]| for every i.

        The nodes fall into at most _TAIL_CELLS cells of b consecutive nodes
        (the last may hold fewer, which gives the extrema of padding it with
        v[-1]).  A pair l nodes apart lies in cells l//b or l//b + 1 apart,
        and its |dv| is at most the larger gap between the two cells, max of
        one minus min of the other.  C[c] is the
        largest such gap over the cell pairs c apart, and gaps[k] =
        max(C[l//b], C[l//b + 1]).  Rounding is monotone, so each gap as
        computed is at least every |dv| the sweep computes at that lag.
        """
        def build():
            N = self.resolution
            b = -(-N // _TAIL_CELLS)
            starts = np.arange(0, N, b)
            n = len(starts)
            # table[I, I + c] for c = 0..n is a diagonal read; columns >= n hold -inf
            table = np.full((n, 2 * n), -np.inf)
            diagonals = as_strided(table, shape=(n, n + 1),
                                   strides=(table.strides[0] + table.strides[1], table.strides[1]))
            return starts, np.arange(1, N) // b, table, diagonals

        starts, lag_cells, table, diagonals = self.cached("lag_cells", build)
        hi, lo = np.maximum.reduceat(vals, starts), np.minimum.reduceat(vals, starts)
        gap = hi - lo[:, None]  # gap[I, J] = max v(J) - min v(I)
        np.fmax(gap, gap.T, out=table[:, :len(starts)])
        C = np.fmax.reduce(diagonals, axis=0)  # C[n] = -inf: no cells lie n apart
        return np.fmax(C[:-1], C[1:])[lag_cells]

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
        If the extrema bound would still leave it more than _TAIL_BLOCKS
        blocks, the sweep then builds the tail bound, tail[k] = the largest
        _lag_gaps(vals)[j] / d^alpha over the offsets j >= k, and from there
        on stops once tail[k] <= best in its place; it is never looser.
        The bounds hold for the values as computed and the seed is a pair
        quotient computed as the sweep computes it, so the result is
        bit-identical to the sweep over every offset (see the module
        docstring).

        A 1-d block's shifts are consecutive, so its rows are a slice of
        moved, and their differences go into one (step, N) buffer cached on
        the grid: no block allocates.  A fresh block (256 KiB at N = 3201)
        lies above malloc's mmap threshold, so each one would be mapped,
        faulted in and unmapped again.  Both ways into the buffer give the
        same bits: np.subtract straight from the strided rows takes one
        pass, but once three rows fit numpy's ufunc buffer (np.getbufsize(),
        8192 elements, so N <= 2730; read once per sweep) numpy first copies
        them through it, and a plain copy, then the subtraction in place, is
        cheaper there (about 0.7 against 0.8-1.1 ns per element; above, 0.66
        against 0.5; numpy 2.4).  2-d blocks keep the fancy index
        moved[shifts[block]]: their shifts are not consecutive, and a
        per-shift loop into a buffer gave the same bits but took 967 us
        against 350 us per sweep at N = 25 and 2593 us against 1131 us at
        N = 33; it wins only at a size no scenario runs (88.9 ms against
        100.9 ms at N = 97).
        """
        padded, moved, slots, shifts, _ = self._lags()
        dpow, slope = self._lag_powers(alpha)
        osc = float(np.max(vals) - np.min(vals))
        padded[slots] = vals
        base = moved[0]
        step = max(1, _SWEEP_BLOCK // (padded.size - len(moved) + 1))  # slots one view spans
        if self.dim == 1:
            buf = self.cached("sweep_buf", lambda: np.empty((step, *base.shape)))
            straight = 3 * len(base) > np.getbufsize()
        best, k, tail = 0.0, 0, None
        while k < len(shifts) and (osc / dpow[k] if tail is None else tail[k]) > best:
            if k == step and slope is not None:
                # past the first block: seed, skip what the slope bound rules
                # out, and bound the tail if the extrema leave many blocks
                best = max(best, _extrema_seed(vals, dpow, slots))
                live = slope[k:] * (m1 * _SLOPE_MARGIN) > best
                k += int(np.argmax(live)) if live.any() else len(live)
                far = k + _TAIL_BLOCKS * step
                if far < len(shifts) and osc / dpow[far] > best:
                    tail = self._lag_gaps(vals) / dpow
                    np.maximum.accumulate(tail[::-1], out=tail[::-1])
                slope = None  # seeded: back to the stop test at the new k
                continue
            block = slice(k, k + step)
            if self.dim == 2:
                diff = moved[shifts[block]]
                diff -= base
            else:
                n = len(shifts[block])  # the last block may be short
                rows, diff = moved[shifts[k]:shifts[k] + n], buf[:n]
                if straight:
                    np.subtract(rows, base, out=diff)
                else:
                    np.copyto(diff, rows)
                    diff -= base
            np.abs(diff, out=diff)
            # NaN marks a slot off the ball; fmax skips it
            lag_max = np.fmax.reduce(diff.reshape(len(diff), -1), axis=1)
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


def laplacian(g, x):
    """Discrete Laplacian: D_xx @ x + D_yy @ x on the disk, D_xx @ x in 1-d."""
    if g.dim == 1:
        return g.derivative_matrix((2,)) @ x
    return g.derivative_matrix((2, 0)) @ x + g.derivative_matrix((0, 2)) @ x


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
    return sum(ci * bi for ci, bi in zip(c, basis))


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
        return a + b * x
    y = grid.coords[:, 1]
    a, b, c, d = rng.uniform(-2.0, 2.0, 4)
    return a + b * x + c * y + d * x * y


def _random_vec(grid, rng, q=2):
    return np.column_stack([_random_scalar(grid, rng) for _ in range(q)])


def leibniz_defect(grid, u, v, beta):
    """sup |D^beta(uv) - binomial expansion| over the nodes.

    u and v go in as the two columns of one field, so each D^gamma
    (gamma <= beta) is applied once.
    """
    lhs = grid.derivative_matrix(beta) @ (u * v)
    both = np.column_stack([u, v])
    sub = list(np.ndindex(*(b + 1 for b in beta)))  # every gamma <= beta
    d = {gamma: grid.derivative_matrix(gamma) @ both for gamma in sub}
    rhs = np.zeros_like(lhs)
    for gamma in sub:
        coeff = float(prod(comb(bi, gi) for bi, gi in zip(beta, gamma)))
        rest = tuple(b - g for b, g in zip(beta, gamma))
        rhs += coeff * d[gamma][:, 0] * d[rest][:, 1]
    return float(np.max(np.abs(lhs - rhs)))


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

    for _ in range(samples):
        u = _random_scalar(grid, rng)
        v = _random_scalar(grid, rng)
        ua, va = _random_affine(grid, rng), _random_affine(grid, rng)
        _random_scalar(grid, rng)  # discarded: keeps w1 and w2 on their seeded draws
        w1 = _random_vec(grid, rng)
        w2 = _random_vec(grid, rng)
        # one table of C^{0,alpha}, C^{1,alpha}, C^{2,alpha} norms per field;
        # every witness below reads it
        nu, nv, nuv, ndot = (
            holder_norms(ScalarField(grid, f), (0, 1, 2), alpha)
            for f in (u, v, u * v, (w1 * w2).sum(axis=1))
        )
        nw1, nw2 = (holder_norms(VecField(grid, w), (0, 1, 2), alpha) for w in (w1, w2))

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
            scale = max(1.0, float(np.max(np.abs(ua * va))))
            report["leibniz_max_err"] = max(
                report["leibniz_max_err"], leibniz_defect(grid, ua, va, beta) / scale
            )

        for m in (1, 2):
            report[f"scalar_bilinear_witness_m{m}"] = max(
                report[f"scalar_bilinear_witness_m{m}"], nuv[m] / max(nu[m] * nv[m], 1e-300)
            )
            report[f"dot_bilinear_witness_m{m}"] = max(
                report[f"dot_bilinear_witness_m{m}"], ndot[m] / max(nw1[m] * nw2[m], 1e-300)
            )

    return report
