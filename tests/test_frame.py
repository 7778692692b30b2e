"""Frame, embedding, and verification-oracle tests."""

import numpy as np
import pytest

from isoperturb.embeddings import CircleChart, ParabolaChart, TorusChart
from isoperturb.frame import NotFreeError, apply_frame, build_frame
from isoperturb import verify as verify_module
from isoperturb.grid import ScalarField, SymTensorField, VecField, make_grid
from isoperturb.verify import (
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


def test_oracle_assembly_solves_each_window_once(monkeypatch):
    # an interval has 5 distinct first-derivative windows (the centred one
    # and two one-sided ones at each end) and 6 second-derivative ones
    verify_module._window_weights.cache_clear()
    g = make_grid(1, 3201)
    cached = [oracle_derivative_matrix(g, (k,)) for k in (1, 2)]
    info = verify_module._window_weights.cache_info()
    assert info.misses == 11
    assert info.hits + info.misses == 2 * g.num_nodes
    # the stencils are bit-identical to one Vandermonde solve per node
    monkeypatch.setattr(verify_module, "_window_weights",
                        verify_module._window_weights.__wrapped__)
    fresh = make_grid(1, 3201)
    for k, m in zip((1, 2), cached):
        ref = oracle_derivative_matrix(fresh, (k,))
        assert np.array_equal(m.indptr, ref.indptr)
        assert np.array_equal(m.indices, ref.indices)
        assert np.array_equal(m.data, ref.data)


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


def test_isometry_residual_frozen_scaling_example():
    # F = 1.1 F0 has pullback 1.21 g0, so the residual field is 0.21 g0;
    # the oracle is exact on polynomials, giving sup = 0.21 * max(1+4x^2)
    g = make_grid(1, 201)
    chart = ParabolaChart()
    F0 = chart.evaluate(g)
    F = VecField(g, 1.1 * F0.values)
    zero = SymTensorField(g, np.zeros((g.num_nodes, 1)))
    sup, res = isometry_residual(F, F0, zero)
    assert abs(sup - 0.21 * 5.0) < 1e-9
    expected = 0.21 * (1.0 + 4.0 * g.coords[:, 0] ** 2)
    assert np.max(np.abs(res.values[:, 0] - expected)) < 1e-9


# ---------------------------------------------------------------------------
# freeness margins (closed-form oracles)


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
    flat = VecField(g, np.column_stack([x, np.zeros_like(x)]))
    with pytest.raises(NotFreeError) as exc:
        build_frame(flat)
    assert exc.value.margin < 1e-10


def test_product_torus_lacks_components():
    # the plain product-of-circles map has only q=4 < n(n+3)/2 = 5
    g = make_grid(2, 33)
    c = 3.0
    x, y = g.coords[:, 0], g.coords[:, 1]
    prod = VecField(
        g, np.column_stack([np.cos(c * x), np.sin(c * x), np.cos(c * y), np.sin(c * y)])
    )
    with pytest.raises(ValueError, match=r"n\(n\+3\)/2 = 5"):
        build_frame(prod)


def test_torus_chart_is_free():
    g = make_grid(2, 33)
    frame = build_frame(TorusChart((0.0, 0.0), 3.0), g)
    assert frame.freeness_margin > 0.1
    assert frame.identity_defect <= 1e-10
    assert frame.rows == 5 and frame.q == 6


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
    h = VecField(g, rng.standard_normal((g.num_nodes, 1)))
    f = SymTensorField(g, rng.standard_normal((g.num_nodes, 1)))
    e = apply_frame(frame, h, f)
    # products against the analytic rows recover (h, f) pointwise
    got_h = np.sum(frame.A[:, 0, :] * e.values, axis=1)
    got_f = np.sum(frame.A[:, 1, :] * e.values, axis=1)
    assert np.max(np.abs(got_h - h.values[:, 0])) < 1e-9
    assert np.max(np.abs(got_f - f.values[:, 0])) < 1e-9


def test_apply_frame_zero_maps_to_zero():
    g = make_grid(1, 101)
    frame = build_frame(ParabolaChart(), g)
    z = np.zeros((g.num_nodes, 1))
    e = apply_frame(frame, VecField(g, z), SymTensorField(g, z))
    assert np.all(e.values == 0.0)


def test_apply_frame_shape_validation():
    g = make_grid(1, 101)
    frame = build_frame(ParabolaChart(), g)
    with pytest.raises(ValueError, match="row coefficients"):
        apply_frame(frame, VecField(g, np.zeros((g.num_nodes, 2))), SymTensorField(g, np.zeros((g.num_nodes, 1))))


def test_sampled_embedding_frame_matches_analytic():
    g = make_grid(1, 201)
    chart = CircleChart(0.0, 3.0 * np.pi / 4.0)
    analytic = build_frame(chart, g)
    sampled = build_frame(chart.evaluate(g))
    assert np.max(np.abs(analytic.A - sampled.A)) < 1e-5
    assert abs(analytic.freeness_margin - sampled.freeness_margin) < 1e-5


# ---------------------------------------------------------------------------
# chart sanity


def test_chart_base_metrics():
    g1 = make_grid(1, 101)
    x = g1.coords[:, 0]
    pm = ParabolaChart().base_metric(g1)
    assert np.max(np.abs(pm.values[:, 0] - (1.0 + 4.0 * x * x))) < 1e-12
    c = 3.0 * np.pi / 4.0
    cm = CircleChart(0.0, c).base_metric(g1)
    assert np.all(cm.values == c * c)
    g2 = make_grid(2, 33)
    tm = TorusChart((0.0, 0.0), 3.0).base_metric(g2)
    assert np.all(tm.values[:, 0] == 18.0)
    assert np.all(tm.values[:, 1] == 9.0)
    assert np.all(tm.values[:, 2] == 18.0)


def test_chart_derivatives_match_oracle_stencils():
    g = make_grid(1, 401)
    chart = CircleChart(0.5, 2.0)
    F = chart.evaluate(g)
    d1_num = oracle_derivative_matrix(g, (1,)) @ F.values
    assert np.max(np.abs(d1_num - chart.d1(g))) < 1e-6
    d2_num = oracle_derivative_matrix(g, (2,)) @ F.values
    assert np.max(np.abs(d2_num - chart.d2(g))) < 1e-4


def test_chart_validation():
    with pytest.raises(ValueError, match="halfwidth"):
        CircleChart(0.0, 3.5)
    with pytest.raises(ValueError, match="halfwidth"):
        TorusChart((0.0, 0.0), 4.0)
