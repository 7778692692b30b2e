"""The package's operator tables against scipy.sparse, bit for bit.

Each per-axis grid.CSROperator is scipy's canonical CSR: the same indptr,
indices and data as scipy's COO -> CSR of the table's own triplets, given
in a shuffled order.  Its @ is csr_matvec (and csr_matvecs for x of
several columns): the same doubles, inf and -0.0 included.  A NaN result is
compared by position only, as numpy's additions need not give it the sign
scipy's kernels do.  Each operator D^s is its per-axis tables applied last
factor first, and is compared with scipy's matrices of the same axes and
orders applied in that order.  scipy.sparse is imported here only as the
reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from isoperturb.grid import SOLVER_WIDTHS, ScalarField, VecField, derivative, laplacian, make_grid, multi_indices
from isoperturb.verify import ORACLE_WIDTHS

CASES = [(1, 17), (1, 18), (1, 201), (1, 3201), (2, 17), (2, 18), (2, 25), (2, 97)]


def _same(got, want):
    """Same dtype, shape and bytes, except that a NaN matches any NaN."""
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def _reference_axis(op, n, rng):
    """scipy's COO -> CSR of op's own triplets, fed in a shuffled order."""
    rows = np.repeat(np.arange(n), np.diff(op.indptr))
    p = rng.permutation(len(rows))
    return sp.coo_matrix((op.data[p], (rows[p], op.indices[p])), shape=(n, n)).tocsr()


def _apply(refs, x):
    """scipy's matrices refs applied to x, the last one first."""
    for ref in reversed(refs):
        x = ref @ x
    return x


def _inputs(n, rng):
    """(nodes, 6) normal draws with NaN, -NaN, +-inf and -0.0 entries spread in."""
    x = rng.standard_normal((n, 6))
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0])
    hit = rng.random((n, 6)) < 0.04
    x[hit] = specials[rng.integers(0, len(specials), hit.sum())]
    return x


@pytest.mark.parametrize("dim, N", CASES)
def test_operators_and_products_are_scipys_bit_for_bit(dim, N):
    g = make_grid(dim, N)
    n = g.num_nodes
    rng = np.random.default_rng(N)
    x = _inputs(n, rng)
    finite = np.random.default_rng(0).standard_normal((n, 6))
    zeros = np.full((n, 2), -0.0)  # a sum that starts from a term, not 0.0, stays -0.0
    for widths in (SOLVER_WIDTHS, ORACLE_WIDTHS):
        axis_refs = {}

        def axis_ref(axis, order):
            if (axis, order) not in axis_refs:
                (table,) = g.stencil_operator(widths, tuple(order if a == axis else 0 for a in range(dim))).factors
                axis_refs[axis, order] = table, _reference_axis(table, n, rng)
            return axis_refs[axis, order]

        for m in range(5):
            for s in multi_indices(dim, m):
                pairs = []
                for axis, k in enumerate(s):
                    while k > 0:  # axis 0 first, order-2 steps before the order-1 step
                        step = 2 if k >= 2 else 1
                        pairs.append(axis_ref(axis, step))
                        k -= step
                op = g.stencil_operator(widths, s)
                label = (widths, s)
                assert len(op.factors) == len(pairs), label
                for table, (want, ref) in zip(op.factors, pairs):
                    assert table is want, label
                    for part in ("indptr", "indices", "data"):
                        assert _same(getattr(table, part), getattr(ref, part)), (label, part)
                refs = [ref for _, ref in pairs] or [sp.identity(n, format="csr")]
                for v in (x, x[:, 0], x[:, :1], x[:, :2], finite, finite[:, 0], zeros, zeros[:, 0]):
                    assert _same(op @ v, _apply(refs, v)), (label, v.shape)
                    if len(pairs) == 1:
                        assert _same(pairs[0][0] @ v, refs[0] @ v), (label, v.shape)


@pytest.mark.filterwarnings("ignore:invalid value encountered in add:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("dim, N", [(1, 201), (2, 25)])
def test_laplacian_and_derivatives_apply_scipys_sums(dim, N):
    g = make_grid(dim, N)
    n = g.num_nodes
    x = _inputs(n, np.random.default_rng(1))
    refs = [_reference_axis(g.derivative_matrix(tuple(2 if a == ax else 0 for a in range(dim))).factors[0],
                            n, np.random.default_rng(ax)) for ax in range(dim)]
    want = refs[0] @ x if dim == 1 else refs[0] @ x + refs[1] @ x
    assert _same(laplacian(VecField(g, x)).values, want)
    assert _same(laplacian(ScalarField(g, x[:, 3])).values, want[:, 3])
    s = (3,) if dim == 1 else (1, 1)
    tables = g.derivative_matrix(s).factors
    got = derivative(VecField(g, x), s).values
    assert _same(got, _apply([_reference_axis(t, n, np.random.default_rng(0)) for t in tables], x))


def test_a_nonfinite_entry_reaches_only_the_rows_that_read_it():
    for dim, N, s in ((1, 201, (4,)), (2, 25, (1, 1))):
        g = make_grid(dim, N)
        op = g.derivative_matrix(s)
        bad_node = g.num_nodes // 3
        readers = np.array([bad_node])
        for f in reversed(op.factors):  # the rows that read bad_node through each table in turn
            rows = np.repeat(np.arange(g.num_nodes), np.diff(f.indptr))
            readers = np.unique(rows[np.isin(f.indices, readers)])
        for bad in (np.nan, np.inf):
            x = g.coords.sum(axis=1)
            x[bad_node] = bad
            y = op @ x
            assert not np.isfinite(y[readers]).any(), (s, bad)
            assert np.isfinite(np.delete(y, readers)).all(), (s, bad)
