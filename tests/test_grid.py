"""Grid, stencil, and Hoelder-norm tests (with independent in-test oracles)."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from test_operator_tables import _triplets

from isoperturb import grid as grid_module
from isoperturb.grid import (
    _CELL,
    _SLOPE_MARGIN,
    _SWEEP_BLOCK,
    _extrema_seed,
    SOLVER_WIDTHS,
    ScalarField,
    VecField,
    check_inequalities,
    holder_norm,
    holder_norms,
    laplacian,
    leibniz_defect,
    make_grid,
    monitor_recurrence,
    multi_indices,
    radial_bump,
    random_waves,
    window_weights,
)
from isoperturb.verify import ORACLE_WIDTHS, oracle_derivative_matrix


def brute_c0alpha(coords, vals, alpha):
    """Independent all-pairs oracle for the C^{0,alpha} node norm."""
    n = len(vals)
    sup = float(np.max(np.abs(vals)))
    quot = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(coords[i] - coords[j]))
            quot = max(quot, abs(vals[i] - vals[j]) / d**alpha)
    return sup + quot


def all_pairs_quotient(coords, vals, alpha):
    """Vectorized all-pairs oracle: max |v_i - v_j| / |x_i - x_j|^alpha."""
    best = 0.0
    for i0 in range(0, len(vals), 256):
        d = np.sqrt(((coords[i0:i0 + 256, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
        dv = np.abs(vals[i0:i0 + 256, None] - vals[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(d > 0.0, dv / d**alpha, 0.0)
        best = max(best, float(q.max()))
    return best


def _field(g, kind, rng):
    x = g.coords
    if kind == "smooth":
        k = rng.uniform(-3.0, 3.0, (3, g.dim))
        c = rng.uniform(-1.0, 1.0, 3)
        return sum(ci * np.sin(x @ ki + ci) for ci, ki in zip(c, k))
    if kind == "bump":
        center = rng.uniform(-0.5, 0.5, g.dim)
        radius = rng.uniform(0.05, 0.6)
        r2 = ((x - center) ** 2).sum(axis=1)
        return rng.uniform(0.1, 2.0) * np.clip(1.0 - r2 / radius**2, 0.0, None) ** 4
    return rng.standard_normal(g.num_nodes)


# ---------------------------------------------------------------------------
# construction


def test_make_grid_1d_basic():
    g = make_grid(1, 101)
    assert g.num_nodes == 101
    assert abs(g.spacing - 0.02) < 1e-15
    assert g.coords[0, 0] == -1.0 and g.coords[-1, 0] == 1.0


def test_make_grid_2d_node_count_matches_brute_force_scan():
    # the open disk: no node on the circle
    for N in (33, 65):
        g = make_grid(2, N)
        h = 2.0 / (N - 1)
        count = 0
        for i in range(N):
            for j in range(N):
                x, y = -1.0 + i * h, -1.0 + j * h
                if math.sqrt(x * x + y * y) < 1.0 - 1e-12:
                    count += 1
        assert g.num_nodes == count
        assert np.all(np.sqrt((g.coords**2).sum(axis=1)) < 1.0 - 1e-12)


def test_make_grid_validation_errors_name_the_field():
    with pytest.raises(ValueError, match="dim"):
        make_grid(3, 33)
    with pytest.raises(ValueError, match="resolution"):
        make_grid(1, 10)


def test_lattice_lines_are_contiguous_and_outlast_every_window():
    # every row of every stencil carries its full window
    widest = max(SOLVER_WIDTHS + ORACLE_WIDTHS)
    for N in range(17, 65):
        g = make_grid(2, N)
        for axis in (0, 1):
            on = np.moveaxis(g.node_index, axis, -1) >= 0  # one lattice line per row
            for line in on[on.any(axis=1)]:
                run = np.flatnonzero(line)
                assert np.all(np.diff(run) == 1), (N, axis)
                assert len(run) > widest, (N, axis, len(run))


def test_a_line_shorter_than_its_window_raises():
    # the shortest lines of the N = 17 disk hold 7 nodes
    with pytest.raises(ValueError, match="shorter than the window"):
        make_grid(2, 17)._assemble(8, 0, 1)


@pytest.mark.parametrize("dim, N", [(1, 17), (1, 40), (2, 17), (2, 24), (2, 33)])
def test_node_index_inverts_lattice_index(dim, N):
    g = make_grid(dim, N)
    assert g.node_index.shape == (N,) * dim
    nodes = tuple(g.lattice_index.T)
    assert np.array_equal(g.node_index[nodes], np.arange(g.num_nodes))
    off = np.ones(g.node_index.shape, dtype=bool)
    off[nodes] = False
    assert np.all(g.node_index[off] == -1)


def test_to_lattice_roundtrip():
    for dim in (1, 2):
        g = make_grid(dim, 33)
        vals = np.arange(1.0, g.num_nodes + 1.0)
        lat = g.to_lattice(vals)
        assert lat.shape == (33,) * dim
        assert np.all(lat[tuple(g.lattice_index.T)] == vals)
        assert np.sum(lat == 0.0) == 33**dim - g.num_nodes
        # a trailing channel axis rides along
        vecs = np.column_stack([vals, -vals, 2.0 * vals])
        lat3 = g.to_lattice(vecs)
        assert lat3.shape == (33,) * dim + (3,)
        assert np.all(lat3[tuple(g.lattice_index.T)] == vecs)
        assert np.all(lat3[..., 1] == -lat3[..., 0])


# ---------------------------------------------------------------------------
# derivatives


def _fraction_weights(offsets, order):
    """Exact weights by Gaussian elimination in Fractions on the moment
    equations sum_j w_j o_j^p = order! [p == order], p < len(offsets)."""
    k = len(offsets)
    a = [[Fraction(o) ** p for o in offsets] + [Fraction(math.factorial(order) if p == order else 0)]
         for p in range(k)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        for r in range(k):
            if r != c and a[r][c] != 0:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[r][k] / a[r][r] for r in range(k)]


@pytest.mark.parametrize("width", range(2, 7))
def test_window_weights_are_the_correctly_rounded_exact_weights(width):
    for order in (1, 2):
        if order >= width:
            continue
        for first in range(1 - width, 1):  # every window of this width that holds 0
            offsets = tuple(range(first, first + width))
            exact = _fraction_weights(offsets, order)
            assert window_weights(offsets, order) == tuple(float(w) for w in exact), offsets


def _segment_triplets(ids, h, order):
    """The hand-written 2nd-order solver stencils along one segment of ids,
    as the solver assembled them before window_weights."""
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


def _segment_factors(g, s):
    """derivative_matrix(s)'s per-axis factors from _segment_triplets, one
    segment at a time: axis 0 first, order-2 steps before the order-1 step."""
    factors = []
    for axis, k in enumerate(s):
        lines = [g.node_index] if g.dim == 1 else (g.node_index.T if axis == 0 else g.node_index)
        while k > 0:
            step = 2 if k >= 2 else 1
            rows, cols, vals = [], [], []
            for ids in lines:
                if ids.max() < 0:
                    continue  # a lattice line that misses the disk
                r, c, v = _segment_triplets(ids[ids >= 0], g.spacing, step)
                rows += r
                cols += c
                vals += v
            factors.append(sp.coo_matrix((vals, (rows, cols)), shape=(g.num_nodes, g.num_nodes)).tocsr())
            k -= step
    return factors


@pytest.mark.parametrize("dim, N", [(1, 17), (1, 201), (1, 2948), (2, 17), (2, 18), (2, 25)])
def test_solver_stencils_are_the_hand_written_ones(dim, N):
    # at N = 2948, h**2 != h*h, so dividing by h**2 would move the order-2 data
    g = make_grid(dim, N)
    x = np.random.default_rng(N).standard_normal((g.num_nodes, 2))
    for s in np.ndindex(*(5,) * dim):
        if sum(s) > 4:
            continue
        op, refs = g.derivative_matrix(s), _segment_factors(g, s)
        assert len(op.factors) == len(refs), s
        for f, ref in zip(op.factors, refs):
            rows, cols, data = _triplets(f)
            coo = ref.tocoo()  # canonical CSR order
            assert np.array_equal(rows, coo.row) and np.array_equal(cols, coo.col), s
            assert data.dtype == coo.data.dtype and data.tobytes() == coo.data.tobytes(), s
        want = x + 0.0
        for ref in reversed(refs):  # the last factor acts first
            want = ref @ want
        assert (op @ x).tobytes() == want.tobytes(), s


def test_d1_exact_on_quadratic_everywhere():
    g = make_grid(1, 101)
    x = g.coords[:, 0]
    df = g.derivative_matrix((1,)) @ (x * x)
    assert np.max(np.abs(df - 2.0 * x)) < 1e-10


def test_d2_exact_on_cubic_everywhere():
    g = make_grid(1, 101)
    x = g.coords[:, 0]
    d2 = g.derivative_matrix((2,)) @ x**3
    assert np.max(np.abs(d2 - 6.0 * x)) < 1e-9


def test_second_derivative_error_quarters_under_refinement():
    errs = []
    for N in (101, 201, 401):
        g = make_grid(1, N)
        x = g.coords[:, 0]
        d2 = g.derivative_matrix((2,)) @ np.sin(np.pi * x)
        errs.append(np.max(np.abs(d2 + np.pi**2 * np.sin(np.pi * x))))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_mixed_derivative_exact_on_xy():
    g = make_grid(2, 33)
    x, y = g.coords[:, 0], g.coords[:, 1]
    dxy = g.derivative_matrix((1, 1)) @ (x * y)
    # every node, the rim's one-sided windows included
    assert np.max(np.abs(dxy - 1.0)) < 1e-10


def test_high_order_composed_stencils():
    g = make_grid(1, 201)
    x = g.coords[:, 0]
    inner = slice(4, -4)
    d3 = g.derivative_matrix((3,)) @ x**3
    assert np.max(np.abs(d3[inner] - 6.0)) < 1e-8
    d4 = g.derivative_matrix((4,)) @ x**4
    # double 1/h^2 application amplifies roundoff to ~1e-7 here
    assert np.max(np.abs(d4[inner] - 24.0)) < 1e-6


def test_derivative_order_cap():
    g = make_grid(1, 33)
    with pytest.raises(ValueError, match="unsupported"):
        g.derivative_matrix((5,))
    g2 = make_grid(2, 33)
    with pytest.raises(ValueError, match="unsupported"):
        g2.derivative_matrix((3, 2))


def test_laplacian_matches_sum_of_second_derivatives():
    g = make_grid(2, 33)
    x, y = g.coords[:, 0], g.coords[:, 1]
    f = np.sin(x) * np.cos(y)
    # exactly D_xx f + D_yy f, in that order
    ref = g.derivative_matrix((2, 0)) @ f + g.derivative_matrix((0, 2)) @ f
    assert laplacian(g, f).tobytes() == ref.tobytes()
    g1 = make_grid(1, 33)
    f1 = np.sin(3.0 * g1.coords[:, 0])
    assert laplacian(g1, f1).tobytes() == (g1.derivative_matrix((2,)) @ f1).tobytes()


def _longdouble_apply(op, x):
    """op's float64 per-axis tables applied to x in np.longdouble, last factor first."""
    y = x.astype(np.longdouble)
    for f in reversed(op.factors):
        rows, cols, data = _triplets(f)
        out = np.zeros(len(y), dtype=np.longdouble)
        np.add.at(out, rows, data.astype(np.longdouble) * y[cols])
        y = out
    return y


@pytest.mark.parametrize("dim, N, s, bound", [
    (1, 201, (4,), 1e-9), (1, 201, (3,), 1e-11), (2, 33, (1, 1), 2e-13), (2, 97, (1, 1), 2e-13),
])
def test_composed_derivatives_are_no_less_accurate(dim, N, s, bound):
    """D^s @ u, its factors applied one by one in float64, against the same
    float64 factors applied in np.longdouble, relative to max |D^s u|.

    u is a bump of the elliptic monitors' kind: (1 - r^2/0.75^2)_+^4 times a
    wave.  Where np.longdouble is float64 itself, the reference equals the
    result and this passes trivially.
    """
    g = make_grid(dim, N)
    x = g.coords[:, 0]
    y = g.coords[:, 1] if dim == 2 else 0.0
    u = radial_bump(g, 0.75, 4) * (0.3 + np.sin(3.0 * x + y) + x * x)
    got = g.derivative_matrix(s) @ u
    ref = _longdouble_apply(g.derivative_matrix(s), u)
    assert float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))) <= bound


# ---------------------------------------------------------------------------
# Hoelder norms


def _dense(op):
    """The dense matrix of a Stencil: the product of its tables' dense matrices."""
    n = op.factors[0].cols.shape[1]
    out = np.eye(n)
    for f in op.factors:
        rows, cols, data = _triplets(f)
        table = np.zeros((n, n))
        np.add.at(table, (rows, cols), data)
        out = out @ table
    return out


@pytest.mark.parametrize("oracle_first", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_oracle_and_solver_operators_stay_apart(dim, oracle_first):
    indices = [(1,), (2,)] if dim == 1 else [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]

    def build(g, family, s):
        return oracle_derivative_matrix(g, s) if family == "oracle" else g.derivative_matrix(s)

    order = ("oracle", "solver") if oracle_first else ("solver", "oracle")
    g = make_grid(dim, 33)
    for s in indices:
        ops = {family: build(g, family, s) for family in order}
        assert np.any(_dense(ops["oracle"]) != _dense(ops["solver"]))
        for family, op in ops.items():
            ref = build(make_grid(dim, 33), family, s)  # a fresh grid, one family only
            assert len(op.factors) == len(ref.factors)
            for f, r in zip(op.factors, ref.factors):
                for got, want in zip(_triplets(f), _triplets(r)):
                    assert np.array_equal(got, want)
            assert build(g, family, s) is op  # repeated calls share one object


def test_grid_cache_builds_each_key_once():
    g = make_grid(1, 17)
    calls = []

    def build():
        calls.append(1)
        return object()

    first = g.cached("probe", build)
    assert g.cached("probe", build) is first
    assert len(calls) == 1
    assert g.derivative_matrix((0,)) is g.derivative_matrix((0,))
    assert np.array_equal(g.derivative_matrix((0,)) @ np.eye(17), np.eye(17))  # s = 0 is the identity


def test_holder_norm_of_coordinate_is_one_plus_sqrt2():
    # sup |x| = 1; seminorm max |x-y|^{1/2} = sqrt(2) at the endpoint pair
    for N in (41, 101, 401):
        g = make_grid(1, N)
        f = ScalarField(g, g.coords[:, 0])
        hn = holder_norm(f, 0, 0.5)
        assert abs(hn - (1.0 + math.sqrt(2.0))) < 1e-12


def test_holder_norm_matches_brute_force_oracle():
    g = make_grid(1, 41)
    x = g.coords[:, 0]
    vals = np.sin(2.0 * x) + 0.3 * x * x
    f = ScalarField(g, vals)
    hn = holder_norm(f, 0, 0.5)
    assert abs(hn - brute_c0alpha(g.coords, vals, 0.5)) < 1e-12


def test_holder_norm_2d_matches_brute_force_oracle():
    g = make_grid(2, 17)
    x, y = g.coords[:, 0], g.coords[:, 1]
    vals = np.cos(x + 2.0 * y)
    hn = holder_norm(ScalarField(g, vals), 0, 0.5)
    assert abs(hn - brute_c0alpha(g.coords, vals, 0.5)) < 1e-12


def test_holder_norm_vector_is_component_sum():
    g = make_grid(1, 41)
    x = g.coords[:, 0]
    u = VecField(g, np.column_stack([x, x * x]))
    total = holder_norm(u, 1, 0.5)
    parts = sum(holder_norm(ScalarField(g, c), 1, 0.5) for c in (x, x * x))
    assert abs(total - parts) < 1e-12


def test_holder_norm_m_adds_mth_derivative_part():
    g = make_grid(1, 101)
    x = g.coords[:, 0]
    f = np.sin(np.pi * x)
    n0 = holder_norm(ScalarField(g, f), 0, 0.5)
    n2 = holder_norm(ScalarField(g, f), 2, 0.5)
    d2 = g.derivative_matrix((2,)) @ f
    assert abs(n2 - (n0 + holder_norm(ScalarField(g, d2), 0, 0.5))) < 1e-12


def test_holder_norm_validation():
    g = make_grid(1, 33)
    f = ScalarField(g, g.coords[:, 0])
    with pytest.raises(ValueError, match="alpha"):
        holder_norm(f, 0, 1.2)
    with pytest.raises(ValueError, match="m must"):
        holder_norm(f, 5, 0.5)
    with pytest.raises(ValueError, match="alpha"):
        holder_norms(f, (0, 1), 0.0)
    with pytest.raises(ValueError, match="m must"):
        holder_norms(f, (0, 5), 0.5)
    with pytest.raises(ValueError, match="m must"):
        holder_norms(f, (1.5,), 0.5)


def test_holder_norms_matches_one_order_calls_exactly():
    g = make_grid(2, 21)
    x, y = g.coords[:, 0], g.coords[:, 1]
    for vals in (np.sin(2.0 * x + y), np.column_stack([x * y, np.cos(x - y), y * y])):
        f = VecField(g, vals) if vals.ndim == 2 else ScalarField(g, vals)
        table = holder_norms(f, (4, 0, 2, 1, 3), 0.3)
        assert list(table) == [4, 0, 2, 1, 3]
        for m, value in table.items():
            assert value == holder_norm(f, m, 0.3)


@pytest.mark.parametrize("dim,q", [(1, None), (1, 2), (2, None), (2, 2)])
@settings(max_examples=3, deadline=None)
@given(
    n=st.integers(17, 61),
    orders=st.sets(st.integers(0, 4), min_size=1, max_size=2),
    alpha=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_holder_norms_is_the_sum_of_brute_force_pieces(dim, q, n, orders, alpha, seed):
    # the all-pairs oracle is a Python double loop: keep the disk at N = 17
    g = make_grid(dim, n if dim == 1 else 17)
    rng = np.random.default_rng(seed)
    cols = [_field(g, "smooth", rng) for _ in range(q or 1)]
    f = ScalarField(g, cols[0]) if q is None else VecField(g, np.column_stack(cols))
    table = holder_norms(f, sorted(orders), alpha)
    for m in orders:
        parts = [(0,) * g.dim]
        if m > 0:
            parts += [(m,)] if g.dim == 1 else [(m - k, k) for k in range(m + 1)]
        ref = sum(
            brute_c0alpha(g.coords, g.derivative_matrix(s) @ c, alpha)
            for c in cols for s in parts
        )
        assert table[m] == pytest.approx(ref, rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(
    dim_n=st.one_of(
        st.tuples(st.just(1), st.integers(17, 801)),
        st.tuples(st.just(2), st.integers(17, 65)),
    ),
    alpha=st.floats(0.05, 0.95),
    kind=st.sampled_from(["smooth", "bump", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_seminorm_is_exact_all_pairs_maximum(dim_n, alpha, kind, seed):
    g = make_grid(*dim_n)
    vals = _field(g, kind, np.random.default_rng(seed))
    ref = all_pairs_quotient(g.coords, vals, alpha)
    assert g.quotient_max(vals, alpha) == pytest.approx(ref, rel=1e-12, abs=0.0)
    hn = holder_norm(ScalarField(g, vals), 0, alpha)
    assert hn == pytest.approx(float(np.max(np.abs(vals))) + ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim,N", [(1, 201), (2, 33)])
def test_seminorm_sweeps_leave_nothing_behind(dim, N):
    # every sweep of a grid writes into the one lattice the grid keeps; a
    # value of an earlier field must not show in a later field's seminorm
    g = make_grid(dim, N)
    spike = np.zeros(g.num_nodes)
    spike[g.num_nodes // 3] = 5.0
    other = np.zeros(g.num_nodes)
    other[-2] = -1.0
    smooth = np.sin(g.coords @ np.arange(1.0, dim + 1.0))
    for vals in (spike, np.full(g.num_nodes, 0.25), smooth, other):
        ref = all_pairs_quotient(g.coords, vals, 0.5)
        assert g.quotient_max(vals, 0.5) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_seminorm_of_constant_field_is_exactly_zero():
    for dim, N in ((1, 3201), (2, 33)):
        g = make_grid(dim, N)
        vals = np.full(g.num_nodes, -2.5)
        assert g.quotient_max(vals, 0.5) == 0.0
        assert holder_norm(ScalarField(g, vals), 0, 0.5) == 2.5


def test_seminorm_finds_single_node_spike_on_fine_grid():
    # the maximum sits on the two nearest-neighbour pairs of the spike node:
    # 2 of the ~5e6 pairs of the N=3201 grid
    g = make_grid(1, 3201)
    vals = np.zeros(g.num_nodes)
    vals[1234] = 1.0
    assert g.quotient_max(vals, 0.5) == pytest.approx(1.0 / g.spacing**0.5, rel=1e-15)


def _lag_dpow(g, alpha):
    """d^alpha of every 1-d lag 1..N-1, by the sweep's formula."""
    return (g.spacing * np.sqrt(np.arange(1, g.num_nodes) ** 2)) ** alpha


def exhaustive_lag_sweep(g, vals, alpha):
    """1-d seminorm over every lag: the sweep's formulas, no stop rule, no skip."""
    dpow = _lag_dpow(g, alpha)
    return max(
        float(np.max(np.abs(vals[lag:] - vals[:-lag]))) / dpow[lag - 1]
        for lag in range(1, g.num_nodes)
    )


def _slope_field(kind, N):
    n = np.arange(N)
    x = -1.0 + (2.0 / (N - 1)) * n
    if kind == "ramp":  # every quotient meets the slope bound; max at the longest lag
        return 0.75 * x + 0.1
    if kind == "tent":
        return 1.0 - np.abs(x)
    if kind == "sawtooth":  # the drops meet the slope bound at lag 1
        return (n % 23) * 0.5
    if kind == "zigzag":  # tight at every lag up to its half-period, beyond the first block
        return np.abs((n % 120) - 60.0) * 0.25 + 0.01 * x
    if kind == "adjacent-extrema":
        vals = 0.1 * np.sin(3.0 * x)
        vals[N // 2], vals[N // 2 + 1] = 2.0, -2.0
        return vals
    if kind == "spike":
        vals = np.zeros(N)
        vals[N // 3] = 1.0
        return vals
    if kind == "bump-pair":
        # opposite bumps far apart, like the solution components of a chart
        # family: the best lag lies inside one bump, while max v - min v
        # spans both, so only the tail bound stops the sweep near it
        return np.exp(-(((x - 0.7) / 0.1) ** 2)) - np.exp(-(((x + 0.7) / 0.1) ** 2))
    return np.sin(2.5 * x + 0.3) + 0.2 * np.cos(7.0 * x)


_SLOPE_KINDS = ["ramp", "tent", "sawtooth", "zigzag", "adjacent-extrema", "spike", "smooth", "bump-pair"]


@pytest.mark.parametrize("N", [201, 801, 3201])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("kind", _SLOPE_KINDS)
def test_seminorm_is_bitwise_the_exhaustive_lag_sweep(N, alpha, kind):
    g = make_grid(1, N)
    vals = _slope_field(kind, N)
    assert g.quotient_max(vals, alpha) == exhaustive_lag_sweep(g, vals, alpha)


def exhaustive_pair_sweep(g, vals, alpha):
    """Seminorm over every node pair: |dv| / (h sqrt(di^2 + dj^2))^alpha,
    the sweep's formulas, no stop rule."""
    best = 0.0
    for k in range(g.num_nodes - 1):
        step = g.lattice_index[k + 1:] - g.lattice_index[k]
        dpow = (g.spacing * np.sqrt((step * step).sum(axis=1))) ** alpha
        best = max(best, float(np.max(np.abs(vals[k + 1:] - vals[k]) / dpow)))
    return best


@pytest.mark.parametrize("N", [17, 18, 33])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("kind", ["ramp", "saddle", "rim-spike", "random"])
def test_disk_seminorm_is_bitwise_the_exhaustive_pair_sweep(N, alpha, kind):
    g = make_grid(2, N)
    x, y = g.coords.T
    if kind == "ramp":
        vals = 0.75 * x - 0.5 * y
    elif kind == "saddle":
        vals = x * y
    elif kind == "rim-spike":  # at the rim node of largest x on the row of largest y
        vals = np.zeros(g.num_nodes)
        vals[-1] = 1.0
    else:
        vals = np.random.default_rng(N).standard_normal(g.num_nodes)
    assert g.quotient_max(vals, alpha) == exhaustive_pair_sweep(g, vals, alpha)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim, N", [(1, 801), (1, 3201), (2, 25)])
def test_seminorm_of_an_overflowing_field_is_quiet(dim, N):
    # |dv|, max v - min v and the quotients overflow to inf inside the sweep,
    # which ignores it: no RuntimeWarning, and the all-pairs value, inf for
    # the +-1e308 fields and finite for the wide sine, whose stop tests overflow
    g = make_grid(dim, N)
    huge = np.random.default_rng(N).standard_normal(g.num_nodes)
    huge[g.num_nodes // 3], huge[2 * g.num_nodes // 3] = 1e308, -1e308
    wide = 0.5e308 * np.sin(3.0 * g.coords[:, 0])
    exhaustive = exhaustive_lag_sweep if dim == 1 else exhaustive_pair_sweep
    for vals in (huge, np.where(huge > 0, 1e308, -1e308), wide):
        with np.errstate(over="ignore"):
            expected = exhaustive(g, vals, 0.5)
        assert g.quotient_max(vals, 0.5) == expected
        assert math.isfinite(expected) == (vals is wide)


def _near_tie_field(g, alpha):
    """A 1-d field whose maximum sits on the slope bound of its lag.

    Tent A rises by m1 per node for L nodes, integer steps, so L*m1 is exact
    and its quotient q at lag L is the sweep's slope bound at lag L, also
    without the margin.  Tent B, on a small pedestal, holds argmax v; its
    own lag-L pair reads seed, the largest quotient below q, which rules out
    every shorter lag.  So lag L is the first lag the bound leaves open, and
    the sweep finds q only if it resumes there.  (The search also asks
    (L/d^alpha)*m1 <= seed, a rounding order the sweep does not use; it
    only narrows the choice of L and m1.)  Returns (vals, q, L).
    """
    dpow = _lag_dpow(g, alpha)
    pedestal = 2.0**-10
    for lag in range(50, 120):
        dp = dpow[lag - 1]
        for m1 in np.arange(3.0, 200.0, 2.0):
            q = lag * m1 / dp
            rise = lag * m1
            while rise / dp >= q:
                rise = np.nextafter(rise, 0.0)
            if lag / dp * m1 > rise / dp:
                continue
            ramp = np.arange(lag + 1) * m1
            tent_a = np.concatenate([ramp, ramp[-2::-1]])
            tent_b = np.concatenate([pedestal + ramp[:-1], [pedestal + rise], pedestal + ramp[-2::-1]])
            vals = np.zeros(g.num_nodes)
            vals[2:2 + len(tent_a)] = tent_a
            vals[4 * lag + 4:4 * lag + 4 + len(tent_b)] = tent_b
            return vals, q, lag
    raise AssertionError("no near tie found")


@pytest.mark.parametrize("N", [801, 3201])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_seminorm_slope_skip_keeps_a_near_tie(N, alpha):
    # fails if the skip resumes one lag past the first lag its bound leaves
    # open; the margin is pinned by test_slope_margin_covers_rounded_steps
    g = make_grid(1, N)
    vals, q, lag = _near_tie_field(g, alpha)
    assert lag > _SWEEP_BLOCK // N  # past the first block of the sweep
    assert np.argmax(vals) > 4 * lag  # the seed goes through tent B
    assert exhaustive_lag_sweep(g, vals, alpha) == q
    assert g.quotient_max(vals, alpha) == q


_MARGIN_LAG = 2 * _CELL - 1  # 47, the longest lag of two adjacent cells
# 47 * m1 is at least 64, where floats lie 2**-46 apart, and lies halfway
# between two of them; it rounds down, to even
_MARGIN_M1 = 191642537334915 * 2.0**-47


def _rounded_steps_field(N):
    """A 1-d field whose maximum the slope bound misses without its margin.

    Its steepest run climbs from -X to Y in L = 47 steps that all compute to
    m1 = 1.3617...: the step across zero is m1 + 2**-53, a tie that rounds
    down to m1.  So the computed |Y - (-X)| is one ulp above fl(L * m1),
    while the margin-free bound at lag L rounds L * m1 itself.  The run
    starts at the first node of a cell and ends at the last node of the
    next, so L is the longest lag of its cell pair and the slope bound is
    taken at L.  argmin v starts an arm of L exact m1 steps, whose lag-L
    pair computes to fl(L * m1): the seed reaches the margin-free bound, and
    only the run beats it.  argmax v tops a low hill; gentle ramps (steps
    < 0.5) join the pieces, far enough apart that no other pair's quotient
    comes close.
    """
    L, m1 = _MARGIN_LAG, Fraction(_MARGIN_M1)
    top = Fraction(round(Fraction(-0.8) * 2**47), 2**47)  # run[46]: last below zero
    run = [top - (46 - j) * m1 for j in range(47)] + [top + m1 + Fraction(1, 2**53)]
    low = run[0] - Fraction(1, 16)
    arm = [low + j * m1 for j in range(L + 1)]
    assert all(Fraction(float(x)) == x for x in run + arm)  # every value is a float
    run, arm = np.array(run, dtype=float), np.array(arm, dtype=float)

    def ramp(a, b, n):
        return np.linspace(a, b, n + 1)[1:]

    vals = np.concatenate([
        np.zeros(20), ramp(0.0, arm[0], 130), arm[1:], ramp(arm[-1], 0.0, 10), np.zeros(96),
        ramp(0.0, run[0], 130), run[1:], ramp(run[-1], 0.0, 10), np.zeros(100),
        ramp(0.0, run[-1] + 0.25, 20), ramp(run[-1] + 0.25, 0.0, 20),
    ])
    assert vals[18 * _CELL] == run[0] and vals[20 * _CELL - 1] == run[-1]
    return np.concatenate([vals, np.zeros(N - len(vals))])


@pytest.mark.parametrize("N", [801, 3201])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_slope_margin_covers_rounded_steps(monkeypatch, N, alpha):
    # the computed steps each round by up to half an ulp, so the lag-L
    # difference can exceed L times the largest of them as computed
    g = make_grid(1, N)
    vals, lag = _rounded_steps_field(N), _MARGIN_LAG
    assert lag > _SWEEP_BLOCK // N  # past the first block of the sweep
    assert np.max(np.abs(np.diff(vals))) == _MARGIN_M1
    rise = np.max(np.abs(vals[lag:] - vals[:-lag]))
    assert rise > lag * _MARGIN_M1
    q = exhaustive_lag_sweep(g, vals, alpha)
    assert q == rise / _lag_dpow(g, alpha)[lag - 1]
    assert g.quotient_max(vals, alpha) == q
    monkeypatch.setattr(grid_module, "_SLOPE_MARGIN", 1.0)
    assert g.quotient_max(vals, alpha) < q


def test_seminorm_power_table_is_keyed_on_alpha():
    for dim, N in ((1, 801), (2, 33)):
        g = make_grid(dim, N)
        vals = np.sin(g.coords @ np.arange(2.0, dim + 2.0)) + 0.3 * g.coords[:, 0] ** 2
        for alpha in (0.5, 0.3, 0.5):
            ref = all_pairs_quotient(g.coords, vals, alpha)
            assert g.quotient_max(vals, alpha) == pytest.approx(ref, rel=1e-12, abs=0.0)
            if dim == 1:
                assert g.quotient_max(vals, alpha) == exhaustive_lag_sweep(g, vals, alpha)


def _ripple(g, c=0.01):
    """A ramp with an alternating ripple: m1 is large, so the slope bound
    skips few lags, and the largest quotients sit at long lags.  At N = 201
    the sweep reaches the short last block (shifts 164..200); at N = 3201
    it runs hundreds of blocks."""
    return g.coords[:, 0] + c * (-1.0) ** np.arange(g.num_nodes)


@pytest.mark.parametrize("N", [801, 3201])
def test_seminorm_block_buffer_allocates_no_block(N):
    # a 1-d block's differences go into the grid's cached buffer (copied in
    # at N = 801, subtracted straight in at N = 3201): once the grid is
    # warm, a sweep of many blocks allocates less than one block
    g = make_grid(1, N)
    vals = _ripple(g)
    g.quotient_max(vals, 0.5)
    block_bytes = (_SWEEP_BLOCK // g.num_nodes) * g.num_nodes * 8
    tracemalloc.start()
    try:
        q = g.quotient_max(vals, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q == exhaustive_lag_sweep(g, vals, 0.5)
    assert peak < block_bytes


@pytest.mark.parametrize("N", [201, 3201])
def test_seminorm_block_buffer_carries_nothing_between_sweeps(N):
    # one grid, one buffer: each sweep of each field and alpha must read only
    # its own differences, also from a short last block
    g = make_grid(1, N)
    fields = [_ripple(g), _slope_field("spike", N), _ripple(g, 0.05), _slope_field("smooth", N),
              np.full(N, 0.25), _slope_field("zigzag", N), -_ripple(g, 0.001)]
    for vals in fields:
        for alpha in (0.05, 0.5, 0.95):
            assert g.quotient_max(vals, alpha) == exhaustive_lag_sweep(g, vals, alpha)


def _quotients_past(g, vals, alpha, first):
    """Max quotient per cell pair of g._cell_pairs over its pairs at lags
    past `first`, by the sweep's formulas, and how many pairs it covers."""
    N, b = g.num_nodes, _CELL
    I, J = g._cell_pairs(alpha)[:2]
    dpow = _lag_dpow(g, alpha)
    a = np.arange(b)
    out, covered = np.empty(len(I)), 0
    for k in range(0, len(I), 256):
        i = I[k:k + 256, None, None] * b + a[:, None]
        j = J[k:k + 256, None, None] * b + a
        lag = j - i
        open_ = (lag > first) & (j < N)
        q = np.abs(vals[np.minimum(j, N - 1)] - vals[np.minimum(i, N - 1)]) / dpow[np.clip(lag, 1, N - 1) - 1]
        out[k:k + 256] = np.where(open_, q, 0.0).max(axis=(1, 2))
        covered += int(open_.sum())
    return out, covered


@pytest.mark.parametrize("N", [17, 18, 31, 32, 33, 47, 48, 49, 63, 64, 65, 191, 192, 193, 201, 801, 3201])
def test_lag_gaps_bound_every_lag(monkeypatch, N):
    # the cell-pair bound: the cell pairs cover every node pair at every lag
    # past the first block once, and each pair's bound is at least each of
    # their quotients.  N on both sides of 48 and 192, with full, short and
    # one-node last cells; each grid with its own first block and, below
    # N = 3201, with a first block of one lag, so every longer lag is open
    fields = [_slope_field(kind, N) for kind in _SLOPE_KINDS]
    fields += [_ripple(make_grid(1, N)), np.random.default_rng(N).standard_normal(N)]
    for block in (_SWEEP_BLOCK, N)[:1 if N == 3201 else 2]:
        monkeypatch.setattr(grid_module, "_SWEEP_BLOCK", block)
        g = make_grid(1, N)
        first = g._lags()[5]
        for alpha in (0.05, 0.95):
            for vals in fields:
                m1 = np.max(np.abs(np.diff(vals)))
                q, covered = _quotients_past(g, vals, alpha, first)
                assert covered == sum(N - lag for lag in range(first + 1, N))
                assert np.all(g._cell_bounds(vals, alpha, m1) >= q)


def _ramp_step(N, lo, hi):
    """0, then a ramp from node lo up to 1 at node hi, then a slow rise to
    1 + 1e-3 at the last node.  The steepest pair is the ramp's own ends;
    argmax v is the last node and argmin v the first, so the seed misses
    that pair."""
    n = np.arange(N, dtype=float)
    vals = np.clip((n - lo) / (hi - lo), 0.0, 1.0)
    vals[hi:] += 1e-3 * (n[hi:] - hi) / (N - 1 - hi)
    return vals


def _before_the_cells(g, vals, alpha):
    """best when the 1-d sweep reaches the cell pairs: the first block's
    maximum and the extrema seed."""
    dpow, first = _lag_dpow(g, alpha), g._lags()[5]
    block = max(np.max(np.abs(vals[lag:] - vals[:-lag])) / dpow[lag - 1] for lag in range(1, first + 1))
    return max(block, _extrema_seed(vals, dpow, np.arange(g.num_nodes)))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_tail_bound_reads_the_next_cell_offset(alpha):
    # the steepest pair straddles two cell boundaries, from the first node
    # of cell 1 to the last node of cell 3: lag 71, the longest lag of cell
    # offset 2.  A slope bound taken at the offset's shortest lag (25) rules
    # that cell pair out, so the sweep finds the pair only if it takes the
    # slope bound at the longest
    N, b = 3201, _CELL
    g = make_grid(1, N)
    lo, hi = b, 4 * b - 1
    vals = _ramp_step(N, lo, hi)
    dpow = _lag_dpow(g, alpha)
    q = exhaustive_lag_sweep(g, vals, alpha)
    assert q == (vals[hi] - vals[lo]) / dpow[hi - lo - 1]
    shortest, m1 = b + 1, np.max(np.abs(np.diff(vals)))
    assert shortest > g._lags()[5]  # past the first block
    best = _before_the_cells(g, vals, alpha)
    assert shortest * (m1 * _SLOPE_MARGIN) / dpow[shortest - 1] <= best < q
    assert g.quotient_max(vals, alpha) == q


@pytest.mark.parametrize("N", [681, 801, 3201])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_seminorm_finds_a_maximum_at_the_first_open_lag(N, alpha):
    # a ramp one lag longer than the first block; at N = 681 (48-lag blocks)
    # it runs from the last node of cell 3 to the first node of cell 6, the
    # shortest lag of its cell pair
    g = make_grid(1, N)
    lag = g._lags()[5] + 1
    lo = 4 * _CELL - 1
    vals = _ramp_step(N, lo, lo + lag)
    q = exhaustive_lag_sweep(g, vals, alpha)
    assert q == (vals[lo + lag] - vals[lo]) / _lag_dpow(g, alpha)[lag - 1]
    assert _before_the_cells(g, vals, alpha) < q
    assert g.quotient_max(vals, alpha) == q


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    N=st.integers(182, 1200),
    alpha=st.floats(0.05, 0.95),
    kind=st.sampled_from(["smooth", "bump", "bump-pair", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_seminorm_past_the_first_block_is_bitwise_the_exhaustive_lag_sweep(N, alpha, kind, seed):
    # the sizes whose sweeps can outlast the first block (N - 1 > 32768 // N)
    g = make_grid(1, N)
    rng = np.random.default_rng(seed)
    if kind == "bump-pair":
        vals = _field(g, "bump", rng) - _field(g, "bump", rng)
    else:
        vals = _field(g, kind, rng)
    assert g.quotient_max(vals, alpha) == exhaustive_lag_sweep(g, vals, alpha)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [5e-324, 1e-160, 0.3, 0.5, 0.9])
def test_radial_bump_reads_one_at_the_centre(radius):
    # at 5e-324 radius**2 underflows to 0 and the centre read 0/0 = NaN; at
    # 1e-160 r2 / radius**2 overflows; both warned.  Where radius**2 > 0 the
    # profile keeps every bit of (1 - r2 / radius**2)_+^power
    for dim in (1, 2):
        g = make_grid(dim, 17)
        bump = radial_bump(g, radius, 4)
        assert bump[np.argmin(g.radius())] == 1.0
        if radius < 1e-100:
            assert np.count_nonzero(bump) == 1
        else:
            assert np.array_equal(bump, np.clip(1.0 - (g.coords**2).sum(axis=1) / radius**2, 0.0, None) ** 4)


@settings(max_examples=20, deadline=None)
@given(lam=st.floats(-8.0, 8.0, allow_nan=False))
def test_holder_norm_homogeneity(lam):
    g = make_grid(1, 33)
    x = g.coords[:, 0]
    f = np.sin(2 * x) + x
    a = holder_norm(ScalarField(g, lam * f), 1, 0.5)
    b = abs(lam) * holder_norm(ScalarField(g, f), 1, 0.5)
    assert abs(a - b) <= 1e-12 * max(1.0, b)


@settings(max_examples=20, deadline=None)
@given(c1=st.floats(-3.0, 3.0, allow_nan=False), c2=st.floats(-3.0, 3.0, allow_nan=False))
def test_holder_norm_triangle_inequality(c1, c2):
    g = make_grid(1, 33)
    x = g.coords[:, 0]
    u = c1 * np.sin(2 * x) + x * x
    v = c2 * np.cos(x) - x
    lhs = holder_norm(ScalarField(g, u + v), 1, 0.5)
    rhs = holder_norm(ScalarField(g, u), 1, 0.5) + holder_norm(ScalarField(g, v), 1, 0.5)
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(-2.0, 2.0, allow_nan=False),
    b=st.floats(-2.0, 2.0, allow_nan=False),
    c=st.floats(-2.0, 2.0, allow_nan=False),
    d=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_product_inequality_exact_property(a, b, c, d):
    g = make_grid(1, 33)
    x = g.coords[:, 0]
    u = a + b * np.sin(3 * x)
    v = c * x + d * np.cos(x)
    lhs = holder_norm(ScalarField(g, u * v), 0, 0.5)
    rhs = holder_norm(ScalarField(g, u), 0, 0.5) * holder_norm(ScalarField(g, v), 0, 0.5)
    assert lhs <= rhs * (1.0 + 1e-12)


@settings(max_examples=20, deadline=None)
@given(
    a0=st.floats(-2.0, 2.0, allow_nan=False),
    a1=st.floats(-2.0, 2.0, allow_nan=False),
    b0=st.floats(-2.0, 2.0, allow_nan=False),
    b1=st.floats(-2.0, 2.0, allow_nan=False),
    beta=st.sampled_from([(1,), (2,)]),
)
def test_leibniz_consistency_property(a0, a1, b0, b1, beta):
    g = make_grid(1, 101)
    x = g.coords[:, 0]
    u = a0 + a1 * x
    v = b0 + b1 * x
    assert leibniz_defect(g, u, v, beta) <= 1e-10 * max(1.0, abs(a0) + abs(a1)) * max(
        1.0, abs(b0) + abs(b1)
    )


def _range_stop_field(g, alpha):
    """A 1-d sine whose sweep the prefix does not stop, but whose prefix
    maximum stops it inside the rest of the first block, with the maximum
    past the prefix.  Returns (vals, q), q the exhaustive sweep's value."""
    dpow, step, prefix = _lag_dpow(g, alpha), g._lags()[5], grid_module._PREFIX
    for w in np.linspace(1.0, 30.0, 291):
        vals = np.sin(w * g.coords[:, 0] + 0.4)
        osc = float(vals.max() - vals.min())
        best = max(np.max(np.abs(vals[lag:] - vals[:-lag])) / dpow[lag - 1] for lag in range(1, prefix + 1))
        q = exhaustive_lag_sweep(g, vals, alpha)
        if osc / dpow[prefix] > best and osc / dpow[step - 1] <= best and q > best:
            return vals, q
    raise AssertionError("no field found")


@pytest.mark.parametrize("N", [201, 301])
@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5])
def test_seminorm_cut_at_the_range_stop_is_bitwise_the_exhaustive_lag_sweep(N, alpha):
    g = make_grid(1, N)
    assert 2 * grid_module._PREFIX <= g._lags()[5] < N - 1  # the first block is cut, and it is not the last
    vals, q = _range_stop_field(g, alpha)
    assert g.quotient_max(vals, alpha) == q


def _stop_edge_field(g, alpha, lag=100):
    """A ramp from 0 to 1 over lag nodes, and a dip of depth s at the last
    node, s chosen so that the prefix's maximum, s / d^alpha(1), puts the
    range stop right after the ramp's lag: the sweep finds the maximum,
    the ramp's ends, only if it sweeps up to the stop itself."""
    dpow, N = _lag_dpow(g, alpha), g.num_nodes
    vals = np.ones(N)
    vals[:20] = 0.0
    vals[20:21 + lag] = np.arange(lag + 1) / lag
    s = dpow[0] / dpow[lag]
    while s / dpow[0] < 1.0 / dpow[lag]:
        s = np.nextafter(s, 1.0)
    assert s / dpow[0] < 1.0 / dpow[lag - 1]
    vals[-1] = 1.0 - s
    return vals


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_seminorm_sweeps_up_to_the_range_stop(alpha):
    g = make_grid(1, 201)
    vals, lag = _stop_edge_field(g, alpha), 100
    q = exhaustive_lag_sweep(g, vals, alpha)
    assert q == 1.0 / _lag_dpow(g, alpha)[lag - 1]
    assert grid_module._PREFIX < lag < g._lags()[5]
    assert g.quotient_max(vals, alpha) == q


def _disk_cell_nodes(g):
    """Per cell of g._cells(), the nodes it holds, by lattice point of the
    cell (rows first), -1 where the point is off the disk or off the grid."""
    cells, N = g._cells(), g.resolution
    k = cells.side
    corner = g.lattice_index.min(axis=0)
    j0, i0 = np.divmod(cells.origin, 2 * N - 1)
    b, a = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    i = i0[:, None, None] + a + corner[0]
    j = j0[:, None, None] + b + corner[1]
    inside = (i < N) & (j < N)
    return np.where(inside, g.node_index[np.minimum(i, N - 1), np.minimum(j, N - 1)], -1).reshape(len(i0), -1)


def _disk_quotients_past(g, vals, alpha):
    """Max quotient per cell pair of g._cells() over its node pairs at shifts
    past the first block, by the exhaustive sweep's formulas, and how many
    node pairs it covers (a pair inside one cell counts once)."""
    cells = g._cells()
    _, _, _, shifts, _, step = g._lags()
    # d^alpha by shift, by the exhaustive sweep's formula; -1 marks a shift
    # of the first block, and position 0 the pair of a node with itself
    at = g.lattice_index[:, 0] + (2 * g.resolution - 1) * g.lattice_index[:, 1]
    dj, di = np.divmod(shifts + g.resolution - 1, 2 * g.resolution - 1)
    di -= g.resolution - 1
    dpow = np.full(shifts.max() + 1, -1.0)
    dpow[shifts[step:]] = (g.spacing * np.sqrt(di * di + dj * dj)[step:]) ** alpha
    nodes = _disk_cell_nodes(g)
    out, covered = np.empty(len(cells.I)), 0
    for k in range(0, len(cells.I), 512):
        x = nodes[cells.I[k:k + 512]][:, :, None]
        y = nodes[cells.J[k:k + 512]][:, None, :]
        d = np.where((x >= 0) & (y >= 0), dpow[np.abs(at[y] - at[x])], -1.0)
        open_ = d > 0.0
        q = np.abs(vals[y] - vals[x]) / np.where(open_, d, 1.0)
        out[k:k + 512] = np.where(open_, q, 0.0).max(axis=(1, 2))
        same = (cells.I[k:k + 512] == cells.J[k:k + 512])[:, None, None]
        covered += int(np.sum(open_ & (~same | (x < y))))  # a pair inside one cell once
    return out, covered


def _open_disk_pairs(g):
    """Node pairs at shifts past the first block, counted shift by shift."""
    _, _, slots, shifts, _, step = g._lags()
    node = np.zeros(slots.max() + shifts.max() + 1, bool)
    node[slots] = True
    return sum(int(np.count_nonzero(node[slots + s])) for s in shifts[step:])


@pytest.mark.parametrize("N,block", [(17, None), (17, 1), (25, None), (25, 1), (33, None), (33, 1), (97, None)])
def test_disk_cell_bounds_cover_every_open_pair(monkeypatch, N, block):
    # the disk's cell pairs, partial rim cells included, cover every node
    # pair past the first block once, and each pair's bound is at least each
    # of their quotients; each grid with its own first block and, but for
    # N = 97, with a first block of one shift, so every longer shift is open
    if block is not None:
        monkeypatch.setattr(grid_module, "_DISK_BLOCK", block)
    g = make_grid(2, N)
    x, y = g.coords.T
    rng = np.random.default_rng(N)
    fields = [rng.standard_normal(g.num_nodes), x * y, np.where(np.arange(g.num_nodes) == g.num_nodes - 1, 1.0, 0.0)]
    if N < 97:
        fields += [_field(g, "smooth", rng), _field(g, "bump", rng)]
    covered = None
    for alpha in (0.05, 0.95) if N < 97 else (0.5,):
        for vals in fields:
            q, covered = _disk_quotients_past(g, vals, alpha)
            assert np.all(g._cell_bounds(vals, alpha) >= q)
    assert covered == _open_disk_pairs(g) > 0


def _disk_corpus_fields(g):
    """check_inequalities' scalar corpus on the disk, with its first and
    second derivatives."""
    rng = np.random.default_rng(7)
    fields = []
    for _ in range(3):
        u = grid_module._scalar_corpus(g, rng.uniform(-1.0, 1.0, 6))
        fields.append(u)
        fields += [g.derivative_matrix(s) @ u for s in multi_indices(2, 1) + multi_indices(2, 2)]
    return fields


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_disk_corpus_is_bitwise_the_exhaustive_pair_sweep(alpha):
    g = make_grid(2, 33)
    for vals in _disk_corpus_fields(g):
        assert g.quotient_max(vals, alpha) == exhaustive_pair_sweep(g, vals, alpha)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
def test_disk_constant_and_bump_are_bitwise_the_exhaustive_pair_sweep(alpha):
    g = make_grid(2, 25)
    assert g.quotient_max(np.full(g.num_nodes, 1.5), alpha) == 0.0
    bump = radial_bump(g, 0.3, 4) + 0.1 * radial_bump(g, 0.9, 2)
    assert g.quotient_max(bump, alpha) == exhaustive_pair_sweep(g, bump, alpha)


def test_disk_97_is_bitwise_the_exhaustive_pair_sweep():
    g = make_grid(2, 97)
    vals = _field(g, "smooth", np.random.default_rng(97))
    assert g.quotient_max(vals, 0.5) == exhaustive_pair_sweep(g, vals, 0.5)


# ---------------------------------------------------------------------------
# inequality suite / recurrence monitor


def test_check_inequalities_1d():
    g = make_grid(1, 61)
    rep = check_inequalities(g, samples=25, alpha=0.5, seed=1)
    assert rep["product_violations"] == 0
    assert rep["product_max_ratio"] <= 1.0 + 1e-12
    assert rep["leibniz_max_err"] <= 1e-10
    for key, val in rep.items():
        if key.endswith(tuple("0123456789")) or key.endswith("witness"):
            assert np.isfinite(val)


def test_check_inequalities_2d():
    g = make_grid(2, 33)
    rep = check_inequalities(g, samples=5, alpha=0.5, seed=2)
    assert rep["product_violations"] == 0
    assert rep["leibniz_max_err"] <= 1e-10


def test_monitor_recurrence_frozen_cases():
    # bound is a0 + 2C (+1e-12 slack)
    assert monitor_recurrence(1.0, 0.25, [1.0, 0.75, 0.625, 1.5]) is True
    assert monitor_recurrence(1.0, 0.25, [1.0, 1.5 + 1e-13]) is True
    assert monitor_recurrence(1.0, 0.25, [1.0, 1.5 + 1e-6]) is False
    assert monitor_recurrence(0.0, 0.0, [0.0, 0.0]) is True


@settings(max_examples=30, deadline=None)
@given(
    a0=st.floats(0.0, 5.0, allow_nan=False),
    C=st.floats(0.0, 5.0, allow_nan=False),
    seq=st.lists(st.floats(0.0, 30.0, allow_nan=False), min_size=1, max_size=8),
)
def test_monitor_recurrence_property(a0, C, seq):
    expected = all(s <= a0 + 2 * C + 1e-12 for s in seq)
    assert monitor_recurrence(a0, C, seq) == expected


@pytest.mark.parametrize("dim", [1, 2])
def test_random_waves_draw_one_triple_per_column(dim):
    # the corpus of continuity_witnesses: column k
    # uses the k-th uniform(-1, 1) triple, with this exact operation order
    g = make_grid(dim, 17)
    cols = random_waves(g, np.random.default_rng(4), 3)
    rng = np.random.default_rng(4)
    x = g.coords[:, 0]
    for k in range(3):
        c = rng.uniform(-1.0, 1.0, 3)
        if dim == 1:
            want = c[0] + c[1] * np.sin(2.0 * x) + c[2] * x
        else:
            y = g.coords[:, 1]
            want = c[0] + c[1] * np.sin(x + y) + c[2] * x * y
        assert np.array_equal(cols[:, k], want)
