"""The package's operator tables against scipy.sparse, bit for bit.

grid.CSROperator promises scipy's CSR results exactly: the same indptr,
the same indices in stored order (a product's columns are not sorted), the
same data, and the same doubles from @, NaN, inf and -0.0 included.
scipy.sparse is imported here only as the reference: each per-axis
operator is rebuilt from its own triplets, given in a shuffled order,
through COO -> CSR, and every composed operator and sum is taken with
scipy's own products and sums, in the order Grid.stencil_operator uses.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from isoperturb.grid import SOLVER_WIDTHS, ScalarField, VecField, laplacian, make_grid, multi_indices
from isoperturb.verify import ORACLE_WIDTHS

CASES = [(1, 17), (1, 18), (1, 201), (1, 3201), (2, 17), (2, 18), (2, 25), (2, 97)]


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_same_operator(op, ref, label):
    for part in ("indptr", "indices", "data"):
        assert _same(getattr(op, part), getattr(ref, part)), (label, part)


def _reference_axis(op, n, rng):
    """scipy's COO -> CSR of op's own triplets, fed in a shuffled order."""
    rows = np.repeat(np.arange(n), np.diff(op.indptr))
    p = rng.permutation(len(rows))
    return sp.coo_matrix((op.data[p], (rows[p], op.indices[p])), shape=(n, n)).tocsr()


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
                s = tuple(order if a == axis else 0 for a in range(dim))
                axis_refs[axis, order] = _reference_axis(g.stencil_operator(widths, s), n, rng)
            return axis_refs[axis, order]

        for m in range(5):
            for s in multi_indices(dim, m):
                ref = None
                for axis, k in enumerate(s):
                    while k > 0:  # as Grid.stencil_operator composes
                        step = 2 if k >= 2 else 1
                        ref = axis_ref(axis, step) if ref is None else ref @ axis_ref(axis, step)
                        k -= step
                if ref is None:
                    ref = sp.identity(n, format="csr")
                op = g.stencil_operator(widths, s)
                label = (widths, s)
                _assert_same_operator(op, ref, label)
                for v in (x, x[:, 0], x[:, :1], x[:, :2], finite, zeros, zeros[:, 0]):
                    assert _same(op @ v, ref @ v), (label, v.shape)
        if dim == 2:
            lap = g.stencil_operator(widths, (2, 0)) + g.stencil_operator(widths, (0, 2))
            ref = axis_ref(0, 2) + axis_ref(1, 2)
            _assert_same_operator(lap, ref, (widths, "laplacian"))
            assert _same(lap @ x, ref @ x), (widths, "laplacian")


@pytest.mark.parametrize("dim, N", [(1, 201), (2, 25)])
def test_laplacian_and_derivatives_apply_scipys_sums(dim, N):
    g = make_grid(dim, N)
    n = g.num_nodes
    x = _inputs(n, np.random.default_rng(1))
    refs = [_reference_axis(g.derivative_matrix(tuple(2 if a == ax else 0 for a in range(dim))),
                            n, np.random.default_rng(ax)) for ax in range(dim)]
    ref = refs[0] if dim == 1 else refs[0] + refs[1]
    assert _same(laplacian(VecField(g, x)).values, ref @ x)
    assert _same(laplacian(ScalarField(g, x[:, 3])).values, ref @ x[:, 3])


def test_a_nonfinite_entry_reaches_only_the_rows_that_read_it():
    g = make_grid(1, 201)
    op = g.derivative_matrix((4,))
    rows = np.repeat(np.arange(g.num_nodes), np.diff(op.indptr))
    for bad in (np.nan, np.inf):
        x = np.linspace(-1.0, 1.0, g.num_nodes)
        x[57] = bad
        y = op @ x
        readers = np.unique(rows[op.indices == 57])
        assert not np.isfinite(y[readers]).any()
        assert np.isfinite(np.delete(y, readers)).all()
