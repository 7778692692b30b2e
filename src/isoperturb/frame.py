"""Pointwise derivative frames of a free embedding and their right inverse.

For an embedding F0 with q components on an n-dimensional grid, the frame
matrix A(x) stacks the n first-derivative rows and the n(n+1)/2 distinct
second-derivative rows (lexicographic pairs).  Freeness means the rows are
independent at every node; the right inverse Theta = A^T (A A^T)^{-1} then
prescribes inner products against those rows:

  A(x) . (Theta(x) . z) = z        for any row-coefficient vector z.

`apply_frame` uses this to build the unique combination E(h, f) whose
products with dF0 are h and with d2F0 are f.  A field is its (nodes, k)
array, read on the frame's grid; the package pairs it with a grid (as a
ScalarField or VecField) only to measure it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import Grid, multi_indices
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
    Theta : ndarray, shape (nodes, q, n(n+3)/2)
        Pointwise right inverse, A . Theta = I, of the embedding's first- then
        second-derivative rows A (frame_matrix).
    freeness_margin : float
        Minimum over nodes of the smallest singular value of A.
    eps_free : float
        The threshold the margin was accepted against: 1e-6 times the
        median row norm of A.
    q : int
        Ambient dimension.
    identity_defect : float
        max over nodes of |A Theta - I| (verified <= 1e-10 at build).
    F0 : ndarray, shape (nodes, q)
        The embedding the frame was built from.
    """

    grid: Grid
    Theta: np.ndarray
    freeness_margin: float
    eps_free: float
    q: int
    identity_defect: float
    F0: np.ndarray

    @property
    def rows(self):
        return self.Theta.shape[2]


def _row_count(dim):
    return dim * (dim + 3) // 2


def frame_matrix(source, grid: Grid):
    """Assemble (F0, A) on grid from a chart or a sampled (nodes, q) array.

    A's rows are D^s F0 for |s| = 1, then |s| = 2, in multi_indices order:
    exact from chart.derivative, or from fourth-order difference stencils
    for a sampled embedding, so the row error stays below the residual
    budget of downstream checks.
    """
    sampled = isinstance(source, np.ndarray)
    F0 = source if sampled else source.evaluate(grid)
    rows = [
        oracle_derivative_matrix(grid, s) @ F0 if sampled else source.derivative(grid, s)
        for s in multi_indices(grid.dim, 1) + multi_indices(grid.dim, 2)
    ]
    a = np.stack(rows, axis=1)  # (nodes, rows, q)
    need = _row_count(grid.dim)
    if a.shape[2] < need:
        raise ValueError(
            f"frame dimension error: embedding has q={a.shape[2]} components but "
            f"n(n+3)/2 = {need} independent rows are required"
        )
    return F0, a


def _median(values):
    """np.median of all entries, bit for bit, without the numpy.ma import
    np.median makes on its first call: the mean of the middle one or two
    sorted entries, NaN if any entry is NaN."""
    v = np.sort(values, axis=None)
    if np.isnan(v[-1]):
        return np.nan
    mid = v.size // 2
    return np.mean(v[mid:mid + 1] if v.size % 2 else v[mid - 1:mid + 1])


def build_frame(source, grid: Grid) -> ImmersionFrame:
    """Build the frame and its verified pointwise right inverse.

    Rejects embeddings with a non-finite row entry (naming the first such
    node; the SVD would not converge on a NaN) and those whose margin falls
    at/below 1e-6 times the median row norm; warns when any node's normal
    matrix is badly conditioned.
    """
    F0, a = frame_matrix(source, grid)
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        node = int(np.argmin(finite))
        raise NotFreeError(f"embedding is not free: its derivative rows are not finite at node {node}",
                           margin=np.nan, node=node)
    svals = np.linalg.svd(a, compute_uv=False)
    node = int(np.argmin(svals[:, -1]))
    margin = float(svals[node, -1])
    with np.errstate(over="ignore"):  # rows past 1e154 read inf: eps_free inf, not free
        row_norms = np.linalg.norm(a, axis=2)
    eps_free = _FREE_EPS_REL * float(_median(row_norms))
    if margin <= eps_free:
        raise NotFreeError(
            f"embedding is not free: margin {margin:.3e} <= eps_free {eps_free:.3e} "
            f"at node {node}",
            margin=margin,
            node=node,
        )
    # rows near the float range overflow A A^T and the condition number:
    # the warning then reads inf, and the identity check refuses a NaN inverse
    with np.errstate(over="ignore", invalid="ignore"):
        aat = a @ np.transpose(a, (0, 2, 1))
        try:
            theta = np.transpose(np.linalg.solve(aat, a), (0, 2, 1))
        except np.linalg.LinAlgError as exc:  # A A^T singular as computed: no inverse to verify
            raise NotFreeError(f"frame normal matrix is singular ({exc})", margin=margin, node=node) from None
        # A A^T has the squared singular values of A: its 2-norm condition
        # number is (s_max / s_min)^2, so the one SVD above serves both checks
        cond = float(np.max((svals[:, 0] / svals[:, -1]) ** 2))
        if cond > _COND_WARN:
            warnings.warn(
                f"frame normal matrix condition {cond:.2e} exceeds {_COND_WARN:.0e}; "
                "results may lose digits",
                RuntimeWarning,
                stacklevel=2,
            )
        ident = a @ theta
    eye = np.eye(a.shape[1])[None, :, :]
    defect = float(np.max(np.abs(ident - eye)))
    if not defect <= _IDENTITY_TOL:  # a NaN defect fails too
        raise NotFreeError(
            f"frame inverse verification failed: max |A.Theta - I| = {defect:.3e}",
            margin=margin,
            node=node,
        )
    return ImmersionFrame(grid, theta, margin, eps_free, a.shape[2], defect, F0)


def apply_frame(frame: ImmersionFrame, h, f):
    """E(h,f), shape (nodes, q), with dF0.E = h (per axis, (nodes, n)) and
    d2F0.E = f (per pair, (nodes, n(n+1)/2))."""
    if h.shape[0] != frame.grid.num_nodes or f.shape[0] != frame.grid.num_nodes:
        raise ValueError("apply_frame: fields do not live on the frame's grid")
    if h.shape[1] + f.shape[1] != frame.rows:
        raise ValueError(
            f"apply_frame: need {frame.rows} row coefficients, got "
            f"{h.shape[1]} + {f.shape[1]}"
        )
    return np.einsum("nqr,nr->nq", frame.Theta, np.concatenate([h, f], axis=1))
