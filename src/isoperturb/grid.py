"""Chart grids, discrete fields, and the Hoelder-norm calculus.

A field is its (nodes,) or (nodes, k) array, read on the grid its caller
already holds; ScalarField and VecField pair it with a grid only to be
measured (holder_norm, holder_norms, verify.isometry_residual).  S fields
of one kind measured at once are a stack, (nodes, S) or (nodes, S, k).

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
node pairs that its bounds rule out, so its result is the all-pairs maximum
bit for bit:

- on every sweep, |v(x)-v(y)| <= max v - min v, so once
  (max v - min v) / d^alpha <= best no longer offset can raise the maximum
  and the sweep stops (the range stop);
- a sweep that outlasts its first block cuts the lattice into cells (24
  nodes in 1-d, 3 x 3 lattice points or more on the disk, partial cells
  at the rim) and bounds each pair of cells I, J over the offsets of their
  node pairs that the first block left open.  The range bound:
  max(hi_J - lo_I, hi_I - lo_J), hi and lo a cell's extrema, over the
  least d^alpha of those offsets.  In 1-d also the slope bound:
  |v(x+l)-v(x)| <= l*m1, m1 the largest nearest-neighbour step, and
  l/d^alpha grows with l, so l*m1/d^alpha at the pair's longest lag covers
  the pair; a 1e-12 margin covers rounding.  Subtraction and division
  round monotonically, so the bound (in 1-d the smaller of the two) is at
  least every quotient the sweep computes in the cell pair.  The cell
  pairs whose bound beats best are swept as dense tiles, highest bound
  first, each dropped once its bound is <= best (a tie does not change a
  maximum).

Before it bounds the cell pairs, a sweep seeds best with the quotients of
the pairs through argmax v and argmin v.  They are quotients of real node
pairs, computed as the sweep computes them (|dv| first, then one division
by d^alpha), so the seed is a value the sweep itself could return.  The
seed and the tiles read each d^alpha from the offset image, into which the
cached d^alpha of every offset is scattered, never recomputed: a vector **
may round differently per lane.  The slope bound holds on the disk as
well: for disk nodes p and q one of the corners (p_x, q_y), (q_x, p_y) is a
node, and both legs of the L-path through it are row or column segments.
But there it skips only about 8% of the lags, so disk cells use the range
bound alone.

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
stencil family, the sweep lattice, its cells, cell pairs and offset images,
the sweep buffer, the Dirichlet solver) is kept in the grid's one cache,
Grid.cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

_EDGE_TOL = 1e-12
_MAX_ORDER = 4
_SWEEP_BLOCK = 1 << 15  # flat lattice slots spanned per block of the 1-d lag sweep
_DISK_BLOCK = 1 << 14  # the same on the disk
_PREFIX = 48  # lags a 1-d sweep takes before it cuts the rest of its first block at the range stop
_FAR_BLOCKS = 1  # a disk sweep enters its cells only if the seeded range stop lies past the next block
_SLOPE_MARGIN = 1.0 + 1e-12  # rounding slack on the 1-d slope bound l*m1/d^alpha
_CELL = 24  # nodes per cell of the 1-d cell-pair bound; a tile holds 24 x 24 node pairs
_DISK_TILES = 96  # disk tiles the sweep buffer holds
_TILED_COLUMNS = 6  # widest x a WindowTable multiplies by cached tiled weights (the solver's fields)


def _disk_cell(N):
    """Lattice points per side of a disk cell: 3, or more from N = 96 on, so
    that at most about 24 cells span an axis and a sweep's cell pairs stay
    about 100k (at N = 97 3 x 3 cells give 354k pairs, and bounding them
    took 10 MB)."""
    return max(3, N // 24)


class _Cells(NamedTuple):
    """A grid's lattice cut into cells of side^dim lattice points, and the
    cell pairs a sweep bounds past its first block (Grid._cells)."""

    side: int
    lat: np.ndarray  # slots per lattice step, rows first
    perm: np.ndarray  # the nodes cell by cell (None in 1-d, where they are in order) ...
    starts: np.ndarray  # ... and where each cell's nodes start
    origin: np.ndarray  # each cell's corner slot
    I: np.ndarray  # the pairs: cell I ...
    J: np.ndarray  # ... and cell J, one offset on from I
    off: np.ndarray  # ... by the number of that offset
    first: np.ndarray  # pairs first[o] .. first[o + 1] - 1 are those of offset o
    patch: np.ndarray  # per offset, where its window of (2 side - 1)^dim offsets starts in the image
    longest: np.ndarray  # per offset, its longest lag (1-d; None on the disk)
    image: tuple  # (centre, size) of the offset image (Grid._powers)
    values: np.ndarray  # the sweep lattice's windows of side^dim slots: a cell read from its origin


def _windows(flat, side, lat):
    """Every window of side^dim lattice points of a flat array, by its first
    index: a strided view, lat the index steps of the axes, rows first."""
    s = flat.itemsize
    return as_strided(flat, shape=(len(flat) - (side - 1) * int(lat.sum()),) + (side,) * len(lat),
                      strides=(s, *(lat * s)), writeable=False)


# ---------------------------------------------------------------------------
# fields


@dataclass
class ScalarField:
    """Scalar values at the grid nodes, shape (num_nodes,), or a stack of S
    scalar fields, (num_nodes, S), to be measured."""

    grid: "Grid"
    values: np.ndarray


@dataclass
class VecField:
    """Columns of values at the grid nodes, shape (num_nodes, k), or a stack
    of S such fields, (num_nodes, S, k), to be measured."""

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
    order the module docstring states, for x of shape (nodes,), (nodes, q)
    or a stack (nodes, S, k), whose S * k columns go side by side.  Every
    column gets the bits it gets alone.
    """

    def __init__(self, cols, weights):
        self.cols = cols
        self.weights = weights
        self._tiled = {}  # weights repeated for x of q <= _TILED_COLUMNS columns, by q

    def __matmul__(self, x):
        x = np.asarray(x)
        if x.ndim > 2:
            return (self @ x.reshape(len(x), -1)).reshape(x.shape)
        weights = self.weights
        padded = np.concatenate([x, np.zeros((1,) + x.shape[1:])])
        if x.ndim == 2 and x.shape[1] > _TILED_COLUMNS:
            # a wide stack: one term at a time, weights broadcast, so that
            # nothing is cached per width and no gather holds every term
            acc = np.zeros(x.shape, dtype=padded.dtype)
            with np.errstate(invalid="ignore", over="ignore"):
                for cols, w in zip(self.cols, weights):
                    term = padded.take(cols, axis=0)
                    term *= w[:, None]
                    acc += term
            return acc
        if x.ndim == 2:
            # a weight per element: numpy broadcasts over a short last axis slowly
            q = x.shape[1]
            if q not in self._tiled:
                self._tiled[q] = np.repeat(weights, q).reshape(*weights.shape, q)
            weights = self._tiled[q]
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

        Returns (padded, moved, slots, shifts, dist, step), built once per
        grid.  padded is a NaN-padded flat lattice in which the lattice
        offset of a node pair is a constant index shift; node values go into
        its slots, and the padding holds every shifted slot that leaves the
        ball, so no shift wraps onto another node.  moved is its strided
        view: moved[s] is the nodes' bounding box of lattice points (rows
        of constant y in 2-d), moved by shift s.  Only the slots are ever
        written, so the padding stays NaN.  Each pair of nodes is reached
        by exactly one shift, of length dist.  A block sweeps step shifts.
        """
        return self.cached("lags", self._build_lags)

    def _build_lags(self):
        N = self.resolution
        at = self.lattice_index - self.lattice_index.min(axis=0)  # from the bounding box's corner
        if self.dim == 1:
            steps = np.array([1])
            shifts = np.arange(1, N)
            dist2 = shifts**2
            block = _SWEEP_BLOCK
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
            block = _DISK_BLOCK
        slots = at @ steps
        box = at.max(axis=0) + 1
        span = (box - 1) @ steps + 1  # slots one view spans
        padded = np.full(span + shifts.max(), np.nan)  # also past every cell's last slot
        moved = as_strided(padded, shape=(shifts.max() + 1, *box[::-1]),
                           strides=padded.strides * np.array([1, *steps[::-1]]), writeable=False)
        return padded, moved, slots, shifts, self.spacing * np.sqrt(dist2), max(1, block // span)

    def _powers(self, alpha):
        """(dpow, image) per alpha: d^alpha of every shift, in sweep order,
        and the offset image, image[centre + s] = image[centre - s] = d^alpha
        of shift s (inf at 0 and where no shift lands; see _cells)."""
        def build():
            _, _, _, shifts, dist, _ = self._lags()
            dpow = dist**alpha
            centre, size = self._cells().image
            image = np.full(size, np.inf)
            image[centre + shifts] = dpow  # scattered, never recomputed: a vector ** may round per lane
            image[centre - shifts] = dpow
            return dpow, image

        return self.cached(("powers", alpha), build)

    def _cells(self):
        """The grid's lattice cut into cells, and the cell pairs past the first block.

        A cell is a cube of side^dim lattice points (side _CELL in 1-d,
        _disk_cell(N) on the disk), numbered rows first; only cells that
        hold a node count.  The pairs run over every cell I and the cell J
        one cell offset on, for each offset in the half space (J in a later
        row of cells, or in I's row and not before I) whose window still
        holds a shift past the first block.  The offsets come in the order
        of the least distance they leave open, so those a range bound leaves
        open come first.  Cell geometry is kept per offset, not per pair.
        The offset image (_powers) is wide enough that every window of every
        offset lies inside it.
        """
        return self.cached("cells", self._build_cells)

    def _build_cells(self):
        padded, _, _, shifts, dist, step = self._lags()
        N, d = self.resolution, self.dim
        side = _CELL if d == 1 else _disk_cell(N)
        lat = np.array([2 * N - 1, 1][2 - d:])  # slots per lattice step, rows first
        at = (self.lattice_index - self.lattice_index.min(axis=0))[:, ::-1] // side  # each node's cell
        count = int(at.max()) + 1  # cells per axis
        perm = None if d == 1 else np.lexsort(at.T[::-1])  # the nodes cell by cell, rows first
        ordered = at if perm is None else at[perm]
        starts = np.flatnonzero(np.r_[True, np.any(ordered[1:] != ordered[:-1], axis=1)])
        corner = ordered[starts]
        # disk pairs are many (5253 at N = 33) and held small; a 1-d gather
        # reads intp indices with no copy
        small = np.int16 if d == 2 and count ** 2 <= np.iinfo(np.int16).max else np.intp
        number = np.full((count,) * d, -1, dtype=small)  # each cell's number, -1 for a cell without nodes
        number[tuple(corner.T)] = np.arange(len(corner))
        # the offset image: in 2-d rows of the lattice's 2N - 1 slots; as many
        # rows each side as the longest shift and the farthest window reach
        rows = max(count * side, N - 1)
        centre, size = rows * lat[0] + (N - 1) * (d - 1), (2 * rows + 1) * lat[0]
        # the cell offsets of the half space: a later row of cells, or the same row and not before
        offsets = np.indices((count,) + (2 * count - 1,) * (d - 1)).reshape(d, -1).T
        offsets[:, 1:] -= count - 1
        offsets = offsets[(offsets[:, 0] > 0) | np.all(offsets[:, 1:] >= 0, axis=1)]
        patch = centre + (offsets * side) @ lat - (side - 1) * lat.sum()
        # each offset's least distance past the first block; the offsets with
        # one, in its order, so that those a range bound leaves open come first
        reach = np.full(size, np.inf)
        reach[centre + shifts[step:]] = reach[centre - shifts[step:]] = dist[step:]
        reach = _windows(reach, 2 * side - 1, lat)[patch].reshape(-1, (2 * side - 1) ** d).min(axis=1)
        order = np.argsort(reach, kind="stable")[:np.count_nonzero(reach < np.inf)]
        offsets, patch = offsets[order], patch[order]
        # the pairs, offset by offset: every cell with nodes, and the cell one offset on if it has nodes
        I, J = [np.empty(0, small)], [np.empty(0, small)]
        for o in offsets:
            first = number[tuple(slice(max(0, -c), count - max(0, c)) for c in o)]
            second = number[tuple(slice(max(0, c), count - max(0, -c)) for c in o)]
            both = (first >= 0) & (second >= 0)
            I.append(first[both])
            J.append(second[both])
        sizes = [len(i) for i in I[1:]]
        longest = np.minimum(offsets[:, 0] * side + side - 1, N - 1).astype(float) if d == 1 else None
        return _Cells(side, lat, perm, starts, (corner * side) @ lat, np.concatenate(I), np.concatenate(J),
                      np.repeat(np.arange(len(offsets), dtype=small), sizes),
                      np.r_[0, np.cumsum(sizes)], patch, longest, (centre, size), _windows(padded, side, lat))

    def _cell_pairs(self, alpha):
        """(I, J, off, floor, d_long, patches) per alpha: the cell pairs of
        _cells; per cell offset the least d^alpha of a shift in its window
        that the first block left open, and (1-d) d^alpha at its longest
        lag; and the windows of the offset image."""
        def build():
            cells, (_, _, _, shifts, _, step) = self._cells(), self._lags()
            dpow, image = self._powers(alpha)
            centre = cells.image[0]
            opened = image.copy()
            opened[centre + shifts[:step]] = opened[centre - shifts[:step]] = np.inf
            width = 2 * cells.side - 1
            floor = _windows(opened, width, cells.lat)[cells.patch].reshape(-1, width**self.dim).min(axis=1)
            d_long = None if self.dim == 2 else dpow[cells.longest.astype(int) - 1]
            return cells.I, cells.J, cells.off, floor, d_long, _windows(image, width, cells.lat)

        return self.cached(("cell_pairs", alpha), build)

    def _slope_bounds(self, alpha, m1):
        """The 1-d slope bound per cell offset: its longest lag * m1 / d^alpha there."""
        slope = self._cells().longest * (m1 * _SLOPE_MARGIN)
        slope /= self._cell_pairs(alpha)[4]
        return slope

    def _cell_bounds(self, vals, alpha, m1=None, pairs=None):
        """Per cell pair of _cell_pairs (or per pair of the index array
        pairs), a bound on its quotients past the first block (see the
        module docstring): the range bound, and in 1-d the smaller of it
        and the slope bound of m1."""
        cells = self._cells()
        I, J, off, floor, *_ = self._cell_pairs(alpha)
        if pairs is not None:
            I, J, off = I[pairs], J[pairs], off[pairs]
        v = vals if cells.perm is None else vals[cells.perm]
        hi, lo = np.maximum.reduceat(v, cells.starts), np.minimum.reduceat(v, cells.starts)
        gap, other = hi.take(J), hi.take(I)
        gap -= lo.take(I)
        other -= lo.take(J)
        np.fmax(gap, other, out=gap)
        del other  # at most three arrays of one value per pair alive at once
        gap /= floor.take(off)  # the range bound
        if self.dim == 2:
            return gap
        return np.minimum(gap, self._slope_bounds(alpha, m1).take(off), out=gap)

    def _sweep_cells(self, vals, osc, alpha, best, m1=None):
        """The maximum from best on, over the cell pairs whose bound beats
        best: dense tiles of quotients, highest bound first, in rounds of 8
        tiles growing x4 to what the sweep buffer holds; a tile whose bound
        is <= best drops.  Only the pairs of the cell offsets whose own
        bound (osc over the offset's least open d^alpha, and in 1-d the
        slope bound) beats best are bounded one by one: in the order of
        _cells they are one run of pairs."""
        cells, d = self._cells(), self.dim
        I, J, off, floor, _, patches = self._cell_pairs(alpha)
        by_offset = osc / floor
        if d == 1:
            np.minimum(by_offset, self._slope_bounds(alpha, m1), out=by_offset)
        alive = np.flatnonzero(by_offset > best)
        if not len(alive):
            return best
        pairs = slice(cells.first[alive[0]], cells.first[alive[-1] + 1])
        bound = self._cell_bounds(vals, alpha, m1, pairs)
        live = np.flatnonzero(bound > best)
        live = live[np.argsort(-bound[live], kind="stable")]
        bound, I, J, off = bound[live], I[pairs][live], J[pairs][live], off[pairs][live]
        k = cells.side
        flat, size, n = self._sweep_buf().reshape(-1), k ** (2 * d), 8
        a_shape, e_shape = (-1,) + (k,) * d + (1,) * d, (-1,) + (1,) * d + (k,) * d
        near = (slice(None),) + (slice(k - 1, None),) * d
        live = np.arange(len(live))
        while len(live):
            tiles, live = live[:n], live[n:]
            q = flat[:len(tiles) * size].reshape((len(tiles),) + (k,) * (2 * d))
            np.subtract(cells.values[cells.origin[J[tiles]]].reshape(e_shape),
                        cells.values[cells.origin[I[tiles]]].reshape(a_shape), out=q)
            np.abs(q, out=q)
            # dp[t, a, e]: d^alpha from node a of cell I to node e of cell J
            band = patches[cells.patch[off[tiles]]]
            dp = as_strided(band[near], shape=q.shape,
                            strides=band.strides[:1] + tuple(-s for s in band.strides[1:]) + band.strides[1:],
                            writeable=False)
            best = float(np.fmax.reduce(np.divide(q, dp, out=q), axis=None, initial=best))
            live = live[bound[live] > best]
            n = min(4 * n, len(flat) // size)
        return best

    def _sweep_buf(self):
        """The grid's one sweep buffer: a 1-d block's differences, and the
        tile rounds of either dimension."""
        def build():
            _, moved, _, _, _, step = self._lags()
            if self.dim == 1:
                return np.empty((step, *moved.shape[1:]))
            return np.empty(_DISK_TILES * self._cells().side ** 4)

        return self.cached("sweep_buf", build)

    def _sweep_shifts(self, k, end, dpow, best):
        """best raised by the shifts k .. end - 1, and their largest |dv| each."""
        _, moved, _, shifts, _, _ = self._lags()
        base = moved[0]
        if self.dim == 2:
            diff = moved[shifts[k:end]]
            diff -= base
        else:
            rows, diff = moved[shifts[k]:shifts[k] + end - k], self._sweep_buf()[:end - k]
            if 3 * len(base) > np.getbufsize():
                np.subtract(rows, base, out=diff)
            else:
                np.copyto(diff, rows)
                diff -= base
        np.abs(diff, out=diff)
        # NaN marks a slot off the ball; fmax skips it
        lag_max = np.fmax.reduce(diff.reshape(len(diff), -1), axis=1)
        return float(np.fmax.reduce(lag_max / dpow[k:k + len(diff)], initial=best)), lag_max

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing field sweeps to inf
    def quotient_max(self, vals, alpha):
        """Exact max over all node pairs of |v(x)-v(y)| / |x-y|^alpha.

        Writes vals into the node slots of the grid's sweep lattice (see
        _lags) and sweeps the lattice offsets shortest first, a block of
        offsets at a time, with one d^alpha per offset (cached per alpha).
        Stops once no longer offset can beat the running maximum:
        (max v - min v) / d^alpha <= best.

        A 1-d sweep takes its first _PREFIX lags alone, then the rest of its
        first block only up to the range stop of the maximum so far (when
        the block holds at least twice _PREFIX lags; at N = 201 half the
        norm-suite sweeps stop by lag 43 of the block's 163).  A sweep that
        goes past its first block seeds best with the quotients of every
        pair through argmax v and argmin v, then sweeps the cell pairs whose
        bound beats best (_sweep_cells; in 1-d with m1 = max |v[k+1] -
        v[k]|).  A disk sweep enters its cells only if the seeded range stop
        lies past its next block, and sweeps on by blocks otherwise: at
        N = 25 a cell sweep takes 80-160 us against 30 us for a 14-shift
        block (2-vCPU Xeon, numpy 2.4).  Every quotient is |dv| first, then
        one division by its offset's d^alpha, so the result is bit-identical
        to the sweep over every offset (see the module docstring).

        A 1-d block's shifts are consecutive, so its rows are a slice of
        moved, and their differences go into the grid's sweep buffer, which
        later holds each round of tiles (in either dimension): no block
        allocates.  A fresh block (256 KiB at N = 3201) lies above malloc's
        mmap threshold, so each one would be mapped, faulted in and unmapped
        again.  Both ways into the buffer give the same bits: np.subtract
        straight from the strided rows takes one pass, but once three rows
        fit numpy's ufunc buffer (np.getbufsize(), 8192 elements, so
        N <= 2730; read once per block) numpy first copies them through it,
        and a plain copy, then the subtraction in place, is cheaper there
        (about 0.7 against 0.8-1.1 ns per element; above, 0.66 against 0.5;
        numpy 2.4).  Disk blocks fancy-index moved[shifts[block]]: their
        shifts are not consecutive, and np.take into the buffer would first
        copy all of moved.  They span _DISK_BLOCK slots (14 shifts at
        N = 25, 8 at N = 33, one at N = 97); past the first, the cells take
        over unless the stop is near.
        """
        padded, _, slots, shifts, _, step = self._lags()
        dpow, image = self._powers(alpha)
        centre, n = self._cells().image[0], len(shifts)
        osc = float(vals.max() - vals.min())
        padded[slots] = vals
        if self.dim == 1:
            last = min(step, n)
            end = _PREFIX if 2 * _PREFIX <= last else last
            best, lag_max = self._sweep_shifts(0, end, dpow, 0.0)
            m1 = float(lag_max[0])  # the first shift is one node: max |v[k+1] - v[k]|
            if end < last and osc / dpow[end] > best:
                # the rest of the block, up to the range stop of best so far
                ahead = osc / dpow[end:last] > best
                stop = last if ahead.all() else end + int(np.argmin(ahead))
                best = self._sweep_shifts(end, stop, dpow, best)[0]
            if step < n and osc / dpow[step] > best:
                # past the first block: seed, then sweep the cell pairs the bounds leave open
                best = max(best, _extrema_seed(vals, image[centre + 1:], slots))
                return self._sweep_cells(vals, osc, alpha, best, m1)
            return best
        best, k = 0.0, 0
        while k < n and osc / dpow[k] > best:
            best = self._sweep_shifts(k, k + step, dpow, best)[0]
            k += step
            if k == step < n and osc / dpow[k] > best:
                best = max(best, _extrema_seed(vals, image[centre + 1:], slots))
                far = k + _FAR_BLOCKS * step
                if far < n and osc / dpow[far] > best:
                    return self._sweep_cells(vals, osc, alpha, best)
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
    """Largest quotient over the pairs through argmax vals and argmin vals.

    nodes are the nodes' slots in the sweep lattice, and dpow[s - 1] is
    d^alpha of shift s, so each pair is |v[j] - v[i]| / dpow[|nodes[j] -
    nodes[i]| - 1], the value the sweep takes for it.  The pair of a node
    with itself reads 0 / dpow[-1] = 0.
    """
    ends = np.array([[np.argmax(vals)], [np.argmin(vals)]])
    return float(np.max(np.abs(vals - vals[ends]) / dpow[np.abs(nodes - nodes[ends]) - 1]))


def radial_bump(grid, radius, power):
    """Compactly supported profile (1 - r^2/radius^2)_+^power at the nodes, 1 at r = 0."""
    r2 = (grid.coords**2).sum(axis=1)
    with np.errstate(divide="ignore", over="ignore"):  # radius**2 may underflow: r2 / 0 = inf clips to 0
        ratio = np.divide(r2, radius**2, out=np.zeros_like(r2), where=r2 > 0.0)
    return np.clip(1.0 - ratio, 0.0, None) ** power


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


def _c0alpha(grid, cols, alpha):
    """The C^{0,alpha} norm of each column of cols (nodes, n), as n floats."""
    # each column made contiguous first: a max down axis 0 of a few columns
    # runs numpy's inner loop a row at a time, and a sweep reads its field
    # several times
    rows = np.ascontiguousarray(cols.T)
    sups = np.abs(rows).max(axis=1).tolist()
    return [sup + grid.quotient_max(row, alpha) for row, sup in zip(rows, sups)]


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

    A stack of S fields (a ScalarField of shape (nodes, S), a VecField of
    shape (nodes, S, k)) gives {m: (S,) array}.  Each D^s is applied to the
    whole stack at once (a column gets the bits it gets alone), each column
    is swept on its own, and entry j is summed in the order above, so it is
    bitwise holder_norms of sample j alone.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"holder_norm configuration error: alpha must be in (0,1), got alpha={alpha}")
    for m in orders:
        if int(m) != m or m < 0 or m > _MAX_ORDER:
            raise ValueError(f"holder_norm configuration error: m must be an integer in [0,{_MAX_ORDER}], got m={m}")
    g = fld.grid
    vals = fld.values[..., None] if isinstance(fld, ScalarField) else fld.values
    k = vals.shape[-1]
    cols = vals.reshape(len(vals), -1)  # sample by sample, k components each
    parts = {m: [()] + (multi_indices(g.dim, m) if m > 0 else []) for m in (int(m) for m in orders)}
    # () is the C^{0,alpha} part; one norm per column for each part
    norms = {s: _c0alpha(g, cols if s == () else g.derivative_matrix(s) @ cols, alpha)
             for s in dict.fromkeys(s for keys in parts.values() for s in keys)}
    totals = {}
    for m, keys in parts.items():
        sums = []
        for j in range(0, cols.shape[1], k):
            total = 0.0
            for c in range(j, j + k):
                for s in keys:
                    total += norms[s][c]
            sums.append(total)
        totals[m] = np.array(sums) if vals.ndim == 3 else sums[0]
    return totals


def per_sample(norms):
    """A stack's holder_norms as {m: [float per sample]}: the witnesses are
    Python floats, as one sample's norms are."""
    return {m: n.tolist() for m, n in norms.items()}


def holder_norm(fld, m, alpha):
    """Discrete C^{m,alpha} norm of fld; see holder_norms."""
    return holder_norms(fld, (m,), alpha)[m]


def monitor_recurrence(a0, C, sequence):
    """True iff every entry obeys the recurrence bound a0 + 2C (+1e-12)."""
    seq = np.asarray(sequence, dtype=float)
    return bool(np.all(seq <= a0 + 2.0 * C + 1e-12))


# ---------------------------------------------------------------------------
# inequality suite

# Three seeded corpora stay apart: _scalar_corpus (six terms, for
# check_inequalities), random_waves (continuity_witnesses) and
# poisson._supported_sample (elliptic_monitors).  Their bases, draw counts
# and operation orders differ (c2*x*y is (c2*x)*y, c2*x*x is (c2*x)*x), so
# one shared basis would move the last bits of every frozen report.  Each
# builds all its fields at once from an array of coefficients: a node
# profile p times a coefficient array c broadcasts as p[:, None, ...] * c,
# elementwise the product of one field at a time.


def nodes_first(vals, shape):
    """vals (nodes,) reshaped to broadcast against arrays of the given shape,
    nodes first: (nodes, 1, ..., 1)."""
    return vals[(slice(None),) + (None,) * len(shape)]


def _scalar_corpus(grid, coef):
    """check_inequalities' scalar fields sum_i coef[..., i] * basis_i, one per
    row of coef (..., 6), as an array (nodes, ...)."""
    x = grid.coords[:, 0]
    if grid.dim == 1:
        basis = [np.ones_like(x), x, x * x, np.sin(np.pi * x), np.cos(2.0 * x), np.sin(2.3 * x + 0.7)]
    else:
        y = grid.coords[:, 1]
        basis = [np.ones_like(x), x, y, np.sin(np.pi * x) * np.cos(y), x * y, np.cos(x + 2.0 * y)]
    return sum(c * nodes_first(b, c.shape) for c, b in zip(np.moveaxis(coef, -1, 0), basis))


def _affine_corpus(grid, coef):
    """Per-axis affine polynomials (Leibniz-exact corpus members) a + bx, or
    a + bx + cy + dxy on the disk, one per row of coef (..., 2 dim)."""
    terms = np.moveaxis(coef, -1, 0)
    x = nodes_first(grid.coords[:, 0], coef.shape[:-1])
    if grid.dim == 1:
        a, b = terms
        return a + b * x
    y = nodes_first(grid.coords[:, 1], coef.shape[:-1])
    a, b, c, d = terms
    return a + b * x + c * y + d * x * y


def random_waves(grid, rng, *shape):
    """Seeded corpus fields c0 + c1 sin 2x + c2 x (interval) or
    c0 + c1 sin(x + y) + c2 xy (disk), as an array (nodes, *shape): one
    uniform(-1, 1) triple c per field, drawn in the C order of shape."""
    a, b, c = np.moveaxis(rng.uniform(-1.0, 1.0, (*shape, 3)), -1, 0)
    x = grid.coords[:, 0]
    if grid.dim == 1:
        wave, last = np.sin(2.0 * x), c * nodes_first(x, shape)
    else:
        y = grid.coords[:, 1]
        wave, last = np.sin(x + y), c * nodes_first(x, shape) * nodes_first(y, shape)
    # (a + b wave) + last, summed in place
    out = b * nodes_first(wave, shape)
    out += a
    out += last
    return out


def leibniz_defect(grid, u, v, beta):
    """sup |D^beta(uv) - binomial expansion| over the nodes.

    u and v are one field each, (nodes,), or S samples side by side,
    (nodes, S), which give the S sups as an (S,) array, each bitwise the
    sample's own.  u and v go in as one stack, so each D^gamma
    (gamma <= beta) is applied once.
    """
    lhs = grid.derivative_matrix(beta) @ (u * v)
    both = np.stack([u, v], axis=-1)
    sub = list(np.ndindex(*(b + 1 for b in beta)))  # every gamma <= beta
    d = {gamma: grid.derivative_matrix(gamma) @ both for gamma in sub}
    rhs = np.zeros_like(lhs)
    for gamma in sub:
        coeff = float(prod(comb(bi, gi) for bi, gi in zip(beta, gamma)))
        rest = tuple(b - g for b, g in zip(beta, gamma))
        rhs += coeff * d[gamma][..., 0] * d[rest][..., 1]
    sup = np.max(np.abs(lhs - rhs), axis=0)
    return float(sup) if sup.ndim == 0 else sup


def check_inequalities(grid, samples=100, alpha=0.5, seed=0):
    """Sampled verification of the discrete norm-calculus inequalities.

    Returns a report dict: exact product-inequality violations (must be 0),
    Leibniz consistency error on the polynomial-exact corpus, and finite
    witness constants for the embedding and bilinear bounds at m in {1, 2}.
    Witnesses are empirical maxima, recorded rather than asserted against
    magic constants.

    The corpus is drawn up front, sample by sample in the seeded order, and
    measured as stacks, one field kind at a time: each stencil product,
    norm table (holder_norms) and Leibniz defect runs once over all
    samples, and each seminorm sweeps one column.  The report then takes
    the samples in order, so every entry is bitwise the value of measuring
    one sample at a time.
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

    # per sample: u and v, the affine pair, then one scalar that is drawn
    # and discarded (it keeps w1 and w2 on their seeded draws), w1 and w2
    scalars, affine, vectors = (np.empty((samples, 2, 6)), np.empty((samples, 2, 2 * grid.dim)),
                                np.empty((samples, 5, 6)))
    for k in range(samples):
        scalars[k] = rng.uniform(-1.0, 1.0, (2, 6))
        affine[k] = rng.uniform(-2.0, 2.0, (2, 2 * grid.dim))
        vectors[k] = rng.uniform(-1.0, 1.0, (5, 6))
    u, v = _scalar_corpus(grid, scalars[:, 0]), _scalar_corpus(grid, scalars[:, 1])
    ua, va = _affine_corpus(grid, affine[:, 0]), _affine_corpus(grid, affine[:, 1])
    w1, w2 = _scalar_corpus(grid, vectors[:, 1:3]), _scalar_corpus(grid, vectors[:, 3:])

    # one table of C^{0,alpha}, C^{1,alpha}, C^{2,alpha} norms per field and
    # sample; every witness below reads it
    nu, nv, nuv, ndot = (
        per_sample(holder_norms(ScalarField(grid, f), (0, 1, 2), alpha))
        for f in (u, v, u * v, (w1 * w2).sum(axis=-1))
    )
    nw1, nw2 = (per_sample(holder_norms(VecField(grid, w), (0, 1, 2), alpha)) for w in (w1, w2))
    # Leibniz on the polynomial-exact corpus, at orders <= 2 only: the
    # composed order-3/4 stencils amplify float64 roundoff by 1/h^4,
    # which alone exceeds the 1e-10 consistency budget
    scales = np.max(np.abs(ua * va), axis=0).tolist()
    defects = [leibniz_defect(grid, ua, va, beta).tolist()
               for beta in multi_indices(grid.dim, 1) + multi_indices(grid.dim, 2)]

    for j in range(samples):
        # product inequality, exact by shared-pair-set construction
        lhs = nuv[0][j]
        rhs = nu[0][j] * nv[0][j]
        ratio = lhs / rhs if rhs > 0 else 0.0
        report["product_max_ratio"] = max(report["product_max_ratio"], ratio)
        if lhs > rhs * (1.0 + 1e-12):
            report["product_violations"] += 1

        # embedding witness: |u|_{1,alpha} <= C |u|_{2,alpha}
        report["embed_witness"] = max(report["embed_witness"], nu[1][j] / max(nu[2][j], 1e-300))

        scale = max(1.0, scales[j])
        for defect in defects:
            report["leibniz_max_err"] = max(report["leibniz_max_err"], defect[j] / scale)

        for m in (1, 2):
            report[f"scalar_bilinear_witness_m{m}"] = max(
                report[f"scalar_bilinear_witness_m{m}"], nuv[m][j] / max(nu[m][j] * nv[m][j], 1e-300)
            )
            report[f"dot_bilinear_witness_m{m}"] = max(
                report[f"dot_bilinear_witness_m{m}"], ndot[m][j] / max(nw1[m][j] * nw2[m][j], 1e-300)
            )

    return report
