"""Frame, embedding, and verification-oracle tests."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from test_operator_tables import _triplets

from isoperturb import frame as frame_module
from isoperturb.embeddings import CircleChart, ParabolaChart, TorusChart
from isoperturb.frame import NotFreeError, _median, apply_frame, build_frame
from isoperturb.grid import VecField, make_grid, multi_indices, window_weights
from isoperturb.verify import (
    ORACLE_WIDTHS,
    isometry_residual,
    oracle_derivative_matrix,
    periodic_derivative,
)


# ---------------------------------------------------------------------------
# oracle stencils


def test_oracle_d1_exact_through_degree_four():
    g = make_grid(1, 101)
    x = g.coords[:, 0]
    d1 = oracle_derivative_matrix(g, (1,))
    assert np.max(np.abs(d1 @ x**4 - 4.0 * x**3)) < 1e-9


def test_oracle_d2_exact_through_degree_five():
    g = make_grid(1, 101)
    x = g.coords[:, 0]
    d2 = oracle_derivative_matrix(g, (2,))
    assert np.max(np.abs(d2 @ x**5 - 20.0 * x**3)) < 1e-8


def test_oracle_fourth_order_convergence():
    errs = []
    for N in (101, 201):
        g = make_grid(1, N)
        x = g.coords[:, 0]
        d1 = oracle_derivative_matrix(g, (1,))
        errs.append(np.max(np.abs(d1 @ np.sin(2.0 * x) - 2.0 * np.cos(2.0 * x))))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 24.0  # ~16 for a fourth-order method


def _oracle_rows(g, axis, order):
    """The oracle's operator built one node at a time: each row reads the
    node's clamped window on its lattice line, zero weights left out."""
    width = ORACLE_WIDTHS[order - 1]
    scale = g.spacing if order == 1 else g.spacing * g.spacing
    rows, cols, vals = [], [], []
    for n, at in enumerate(g.lattice_index):
        through = list(at)
        through[axis] = slice(None)
        line = g.node_index[tuple(through)]
        start = int(np.argmax(line >= 0))
        k, r = int(np.sum(line >= 0)), int(at[axis]) - start
        if k < width:
            continue
        lo = min(max(r - width // 2, 0), k - width)
        for q, w in enumerate(window_weights(tuple(range(lo - r, lo - r + width)), order)):
            if w:
                rows.append(n)
                cols.append(line[start + lo + q])
                vals.append(w / scale)
    return sp.coo_matrix((vals, (rows, cols)), shape=(g.num_nodes, g.num_nodes)).tocsr()


@pytest.mark.parametrize("dim, N", [(1, 3201), (2, 25)])
def test_oracle_rows_match_a_per_row_reference(dim, N):
    g = make_grid(dim, N)
    for axis in range(dim):
        for order in (1, 2):
            s = tuple(order if a == axis else 0 for a in range(dim))
            (op,), ref = oracle_derivative_matrix(g, s).factors, _oracle_rows(g, axis, order)
            rows, cols, data = _triplets(op)
            ref = ref.tocoo()  # canonical CSR order
            assert np.array_equal(rows, ref.row), s
            assert np.array_equal(cols, ref.col), s
            assert data.tobytes() == ref.data.tobytes(), s


def test_oracle_rejects_high_order():
    g = make_grid(1, 101)
    with pytest.raises(ValueError, match="order 2"):
        oracle_derivative_matrix(g, (3,))


def test_periodic_derivative_fourth_order():
    errs = []
    for M in (128, 256):
        h = 2.0 * np.pi / M
        th = np.arange(M) * h
        d = periodic_derivative(np.sin(th), h, 1)
        errs.append(np.max(np.abs(d - np.cos(th))))
    assert 10.0 < errs[0] / errs[1] < 24.0


@pytest.mark.parametrize("order, literal", [(1, [1.0, -8.0, 0.0, 8.0, -1.0]),
                                            (2, [-1.0, 16.0, -30.0, 16.0, -1.0])])
def test_periodic_weights_are_the_literal_five_point_stencils(order, literal):
    weights = np.array(literal) / 12.0
    assert np.array_equal(window_weights(tuple(range(-2, 3)), order), weights)
    vals = np.random.default_rng(order).standard_normal((64, 3))
    h = 2.0 * np.pi / 64
    ref = np.zeros_like(vals)
    for c, o in zip(weights, range(-2, 3)):
        ref += c * np.roll(vals, -o, axis=0)
    ref /= h if order == 1 else h * h
    assert np.array_equal(periodic_derivative(vals, h, order), ref)


def test_isometry_residual_frozen_scaling_example():
    # F = 1.1 F0 has pullback 1.21 g0, so the residual field is 0.21 g0;
    # the oracle is exact on polynomials, giving sup = 0.21 * max(1+4x^2)
    g = make_grid(1, 201)
    chart = ParabolaChart()
    F0 = chart.evaluate(g)
    zero = np.zeros((g.num_nodes, 1))
    sup, res = isometry_residual(VecField(g, 1.1 * F0), VecField(g, F0), zero)
    assert abs(sup - 0.21 * 5.0) < 1e-9
    expected = 0.21 * (1.0 + 4.0 * g.coords[:, 0] ** 2)
    assert np.max(np.abs(res[:, 0] - expected)) < 1e-9


# ---------------------------------------------------------------------------
# freeness margins (closed-form oracles)


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (8,), (201, 3), (200, 2)])
def test_median_is_numpys(shape):
    # build_frame's freeness threshold reads it; np.median is the reference
    v = np.random.default_rng(len(shape) + shape[0]).random(shape)
    assert np.asarray(_median(v)).tobytes() == np.asarray(np.median(v)).tobytes()
    v.flat[shape[0] // 2] = np.nan
    assert np.isnan(_median(v)) and np.isnan(np.median(v))


def test_parabola_margin_matches_closed_form():
    # A = [[1, 2x], [0, 2]]: smallest singular value from the 2x2
    # eigenvalue formula for A A^T, minimized at x = +-1
    g = make_grid(1, 401)
    margin = build_frame(ParabolaChart(), g).freeness_margin
    x = g.coords[:, 0]
    tr = 5.0 + 4.0 * x * x
    smin = np.sqrt((tr - np.sqrt(tr * tr - 16.0)) / 2.0)
    assert abs(margin - np.min(smin)) < 1e-12
    # sqrt((9 - sqrt(65))/2) at the endpoints x = +-1
    assert abs(margin - 0.6847416489820998) < 1e-12


def test_circle_margin_is_halfwidth():
    # orthogonal rows of norms c and c^2: for c > 1 the margin is c
    g = make_grid(1, 401)
    c = 3.0 * np.pi / 4.0
    margin = build_frame(CircleChart(0.0, c), g).freeness_margin
    assert abs(margin - c) < 1e-10


def test_degenerate_line_rejected_with_zero_margin():
    g = make_grid(1, 101)
    x = g.coords[:, 0]
    flat = np.column_stack([x, np.zeros_like(x)])
    with pytest.raises(NotFreeError) as exc:
        build_frame(flat, g)
    assert exc.value.margin < 1e-10


def test_product_torus_lacks_components():
    # the plain product-of-circles map has only q=4 < n(n+3)/2 = 5
    g = make_grid(2, 33)
    c = 3.0
    x, y = g.coords[:, 0], g.coords[:, 1]
    prod = np.column_stack([np.cos(c * x), np.sin(c * x), np.cos(c * y), np.sin(c * y)])
    with pytest.raises(ValueError, match=r"n\(n\+3\)/2 = 5"):
        build_frame(prod, g)


def test_torus_chart_is_free():
    g = make_grid(2, 33)
    frame = build_frame(TorusChart((0.0, 0.0), 3.0), g)
    assert frame.freeness_margin > 0.1
    assert frame.identity_defect <= 1e-10
    assert frame.rows == 5 and frame.q == 6


@pytest.mark.parametrize("chart,dim,N", [(TorusChart((0.5, -0.3), 2.0), 2, 25),
                                         (CircleChart(0.0, 3.0 * np.pi / 4.0), 1, 801)])
def test_condition_warning_reads_the_normal_matrix(monkeypatch, chart, dim, N):
    # the warning's condition number is cond(A A^T), taken from A's singular values
    g = make_grid(dim, N)
    a = build_frame(chart, g).A
    cond = float(np.max(np.linalg.cond(a @ np.transpose(a, (0, 2, 1)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_frame(chart, g)
    monkeypatch.setattr(frame_module, "_COND_WARN", cond * (1.0 - 1e-9))
    with pytest.warns(RuntimeWarning, match="condition"):
        build_frame(chart, g)
    monkeypatch.setattr(frame_module, "_COND_WARN", cond * (1.0 + 1e-9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_frame(chart, g)


# ---------------------------------------------------------------------------
# frame inverse and application


def test_frame_identity_defect_parabola_and_circle():
    g = make_grid(1, 401)
    for chart in (ParabolaChart(), CircleChart(0.0, 3.0 * np.pi / 4.0), CircleChart(np.pi, 3.0 * np.pi / 4.0)):
        frame = build_frame(chart, g)
        assert frame.identity_defect <= 1e-10


def test_square_frame_inverse_is_matrix_inverse():
    g = make_grid(1, 101)
    frame = build_frame(ParabolaChart(), g)
    assert frame.A.shape[1] == frame.A.shape[2] == 2
    inv = np.linalg.inv(frame.A)
    assert np.max(np.abs(frame.Theta - inv)) < 1e-11


def test_apply_frame_reconstructs_prescribed_products():
    g = make_grid(1, 201)
    frame = build_frame(ParabolaChart(), g)
    rng = np.random.default_rng(11)
    h = rng.standard_normal((g.num_nodes, 1))
    f = rng.standard_normal((g.num_nodes, 1))
    e = apply_frame(frame, h, f)
    # products against the analytic rows recover (h, f) pointwise
    got_h = np.sum(frame.A[:, 0, :] * e, axis=1)
    got_f = np.sum(frame.A[:, 1, :] * e, axis=1)
    assert np.max(np.abs(got_h - h[:, 0])) < 1e-9
    assert np.max(np.abs(got_f - f[:, 0])) < 1e-9


def test_apply_frame_zero_maps_to_zero():
    g = make_grid(1, 101)
    frame = build_frame(ParabolaChart(), g)
    z = np.zeros((g.num_nodes, 1))
    e = apply_frame(frame, z, z)
    assert np.all(e == 0.0)


def test_apply_frame_shape_validation():
    g = make_grid(1, 101)
    frame = build_frame(ParabolaChart(), g)
    with pytest.raises(ValueError, match="row coefficients"):
        apply_frame(frame, np.zeros((g.num_nodes, 2)), np.zeros((g.num_nodes, 1)))


def test_sampled_embedding_frame_matches_analytic():
    g = make_grid(1, 201)
    chart = CircleChart(0.0, 3.0 * np.pi / 4.0)
    analytic = build_frame(chart, g)
    sampled = build_frame(chart.evaluate(g), g)
    assert np.max(np.abs(analytic.A - sampled.A)) < 1e-5
    assert abs(analytic.freeness_margin - sampled.freeness_margin) < 1e-5


@pytest.mark.parametrize("N, tol", [(25, 1e-2), (97, 1e-4)])
def test_sampled_torus_frame_margin_is_the_charts(N, tol):
    # the chart's rows have smallest singular value 3 at every point; every
    # node of the disk carries full oracle rows, so the sampled margin
    # converges to it
    g = make_grid(2, N)
    frame = build_frame(TorusChart((0.0, 0.0), 3.0).evaluate(g), g)
    assert abs(frame.freeness_margin - 3.0) < tol


# ---------------------------------------------------------------------------
# chart sanity


def test_chart_base_metrics():
    g1 = make_grid(1, 101)
    x = g1.coords[:, 0]
    pm = ParabolaChart().base_metric(g1)
    assert np.max(np.abs(pm[:, 0] - (1.0 + 4.0 * x * x))) < 1e-12
    c = 3.0 * np.pi / 4.0
    cm = CircleChart(0.0, c).base_metric(g1)
    assert np.all(cm == c * c)
    g2 = make_grid(2, 33)
    tm = TorusChart((0.0, 0.0), 3.0).base_metric(g2)
    assert np.all(tm[:, 0] == 18.0)
    assert np.all(tm[:, 1] == 9.0)
    assert np.all(tm[:, 2] == 18.0)


@pytest.mark.parametrize("chart,resolutions", [
    (CircleChart(0.5, 2.0), (101, 201, 401)), (TorusChart((0.5, -0.3), 2.0), (25, 49, 97))],
    ids=["circle", "torus"])
def test_chart_derivatives_match_oracle_stencils(chart, resolutions):
    # every |s| = 1, 2 row, (1, 1) included, at every node: each row's error
    # falls at least 4x per halving of h (16x for the 4th-order rows, 8x for
    # the composed (1, 1)); on the interval the finest grid also meets tol
    for order, tol in ((1, 1e-6), (2, 1e-4)):
        for s in multi_indices(chart.dim, order):
            err = []
            for N in resolutions:
                g = make_grid(chart.dim, N)
                num = oracle_derivative_matrix(g, s) @ chart.evaluate(g)
                err.append(np.max(np.abs(num - chart.derivative(g, s))))
            assert all(a >= 4.0 * b for a, b in zip(err, err[1:])), (s, err)
            assert chart.dim == 2 or err[-1] < tol, (s, err)


def test_chart_validation():
    with pytest.raises(ValueError, match="halfwidth"):
        CircleChart(0.0, 3.5)
    with pytest.raises(ValueError, match="halfwidth"):
        TorusChart((0.0, 0.0), 4.0)
