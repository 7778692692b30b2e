"""Pointwise derivative frames of a free embedding and their right inverse.

For an embedding F0 with q components on an n-dimensional grid, the frame
matrix A(x) stacks the n first-derivative rows and the n(n+1)/2 distinct
second-derivative rows (lexicographic pairs).  Freeness means the rows are
independent at every node; the right inverse Theta = A^T (A A^T)^{-1} then
prescribes inner products against those rows:

  A(x) . (Theta(x) . z) = z        for any row-coefficient vector z.

`apply_frame` uses this to build the unique combination E(h, f) whose
products with dF0 are h and with d2F0 are f.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Grid, SymTensorField, VecField, sym_indices
from .verify import oracle_derivative_matrix

_FREE_EPS_REL = 1e-6
_COND_WARN = 1e8
_IDENTITY_TOL = 1e-10


class NotFreeError(ValueError):
    """Raised when an embedding's derivative rows are (nearly) dependent."""

    def __init__(self, message, margin=0.0, node=-1):
        super().__init__(message)
        self.margin = float(margin)
        self.node = int(node)


@dataclass
class ImmersionFrame:
    """Per-node frame matrices of a free embedding.

    Attributes
    ----------
    grid : Grid
    A : ndarray, shape (nodes, n(n+3)/2, q)
        First- then second-derivative rows of the embedding.
    Theta : ndarray, shape (nodes, q, n(n+3)/2)
        Pointwise right inverse, A . Theta = I.
    freeness_margin : float
        Minimum over nodes of the smallest singular value of A.
    eps_free : float
        The threshold the margin was accepted against: 1e-6 times the
        median row norm of A over the live nodes.
    q : int
        Ambient dimension.
    identity_defect : float
        max over nodes of |A Theta - I| (verified <= 1e-10 at build).
    F0 : VecField
        The embedding the frame was built from.
    excluded_nodes : int
        Nodes whose sampled stencil rows are identically zero (only the
        four pole nodes of a 2-d disk grid, where a row/column holds a
        single node).  Theta is zero there, so fields produced through
        the frame vanish at those nodes; they are outside every cutoff
        support used by the solver and carry no data.
    """

    grid: Grid
    A: np.ndarray
    Theta: np.ndarray
    freeness_margin: float
    eps_free: float
    q: int
    identity_defect: float
    F0: VecField
    excluded_nodes: int = 0

    @property
    def rows(self):
        return self.A.shape[1]


def _row_count(dim):
    return dim * (dim + 3) // 2


def frame_matrix(source, grid: Grid = None):
    """Assemble (F0, A) from a chart (analytic rows) or VecField (stencils).

    Chart objects supply exact derivative rows; for plain sampled
    embeddings the rows come from fourth-order difference stencils, so the
    row error stays below the residual budget of downstream checks.
    """
    if isinstance(source, VecField):
        g = source.grid
        F0 = source
        # Nodes in segments too short to carry any stencil (single-node
        # rows/columns at the rim of a disk grid) get structurally empty
        # rows in a per-axis table.  Track them from the tables themselves
        # so the exclusion can never hide an embedding whose data degenerates.
        dead = np.zeros(g.num_nodes, dtype=bool)
        rows = []
        firsts = [tuple(int(a == ax) for a in range(g.dim)) for ax in range(g.dim)]
        seconds = [tuple((i == a) + (j == a) for a in range(g.dim)) for i, j in sym_indices(g.dim)]
        for s in firsts + seconds:
            m = oracle_derivative_matrix(g, s)
            for f in m.factors:
                dead |= np.diff(f.indptr) == 0
            rows.append(m @ F0.values)
    else:
        if grid is None:
            raise ValueError("frame_matrix: a grid is required when building from a chart")
        g = grid
        F0 = source.evaluate(g)
        dead = np.zeros(g.num_nodes, dtype=bool)
        rows = [source.d1(g, ax) for ax in range(g.dim)] + [
            source.d2(g, i, j) for i, j in sym_indices(g.dim)
        ]
    a = np.stack(rows, axis=1)  # (nodes, rows, q)
    need = _row_count(g.dim)
    if a.shape[2] < need:
        raise ValueError(
            f"frame dimension error: embedding has q={a.shape[2]} components but "
            f"n(n+3)/2 = {need} independent rows are required"
        )
    return F0, a, dead


def _median(values):
    """np.median of all entries, bit for bit, without the numpy.ma import
    np.median makes on its first call: the mean of the middle one or two
    sorted entries, NaN if any entry is NaN."""
    v = np.sort(values, axis=None)
    if np.isnan(v[-1]):
        return np.nan
    mid = v.size // 2
    return np.mean(v[mid:mid + 1] if v.size % 2 else v[mid - 1:mid + 1])


def build_frame(source, grid: Grid = None) -> ImmersionFrame:
    """Build the frame and its verified pointwise right inverse.

    Rejects embeddings whose margin falls at/below 1e-6 times the median
    row norm; warns when any node's normal matrix is badly conditioned.
    """
    F0, a, dead = frame_matrix(source, grid)
    live = ~dead
    svals = np.linalg.svd(a, compute_uv=False)
    live_idx = np.flatnonzero(live)
    node = int(live_idx[np.argmin(svals[live, -1])])
    margin = float(svals[node, -1])
    row_norms = np.linalg.norm(a[live], axis=2)
    eps_free = _FREE_EPS_REL * float(_median(row_norms))
    if margin <= eps_free:
        raise NotFreeError(
            f"embedding is not free: margin {margin:.3e} <= eps_free {eps_free:.3e} "
            f"at node {node}",
            margin=margin,
            node=node,
        )
    aat = a[live] @ np.transpose(a[live], (0, 2, 1))
    cond = float(np.max(np.linalg.cond(aat)))
    if cond > _COND_WARN:
        warnings.warn(
            f"frame normal matrix condition {cond:.2e} exceeds {_COND_WARN:.0e}; "
            "results may lose digits",
            RuntimeWarning,
            stacklevel=2,
        )
    theta = np.zeros((a.shape[0], a.shape[2], a.shape[1]))
    theta[live] = np.transpose(np.linalg.solve(aat, a[live]), (0, 2, 1))
    ident = a[live] @ theta[live]
    eye = np.eye(a.shape[1])[None, :, :]
    defect = float(np.max(np.abs(ident - eye)))
    if defect > _IDENTITY_TOL:
        raise NotFreeError(
            f"frame inverse verification failed: max |A.Theta - I| = {defect:.3e}",
            margin=margin,
            node=node,
        )
    grid_out = F0.grid
    return ImmersionFrame(
        grid_out, a, theta, margin, eps_free, a.shape[2], defect, F0,
        excluded_nodes=int(np.count_nonzero(dead)),
    )


def apply_frame(frame: ImmersionFrame, h: VecField, f: SymTensorField) -> VecField:
    """Field E(h,f) with dF0.E = h (per axis) and d2F0.E = f (per pair)."""
    g = frame.grid
    hv, fv = h.values, f.values
    if hv.shape[0] != g.num_nodes or fv.shape[0] != g.num_nodes:
        raise ValueError("apply_frame: fields do not live on the frame's grid")
    if hv.shape[1] + fv.shape[1] != frame.rows:
        raise ValueError(
            f"apply_frame: need {frame.rows} row coefficients, got "
            f"{hv.shape[1]} + {fv.shape[1]}"
        )
    z = np.concatenate([hv, fv], axis=1)
    out = np.einsum("nqr,nr->nq", frame.Theta, z)
    return VecField(g, out)
