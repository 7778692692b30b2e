"""Correction-operator tests.

The load/coupling/product coefficients are validated against the two
continuum identities they were built to satisfy:
    d_i(a^2 v) . d_j(a^2 v)            = a^2 * gradient_product_term_ij
    d_j(a^3 w_i) + d_i(a^3 w_j)        = a^2 * potential_coupling_term_ij
whose discrete defect must shrink at second order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoperturb.grid import ScalarField, VecField, derivative, laplacian, make_grid, sym_indices
from isoperturb.operators import (
    Cutoff,
    continuity_witnesses,
    gradient_product_term,
    load_potentials,
    normal_correction,
    potential_coupling_term,
    quadratic_load,
    smoothstep,
    smoothstep_slope,
    tangential_correction,
)
from isoperturb.poisson import solve_dirichlet


def smooth_vec(grid, q=3):
    x = grid.coords[:, 0]
    if grid.dim == 1:
        cols = [np.sin(2.0 * x), np.cos(x), 0.5 * x * x]
    else:
        y = grid.coords[:, 1]
        cols = [np.sin(x + y), np.cos(2.0 * x), x * y]
    return VecField(grid, np.column_stack(cols[:q]))


# ---------------------------------------------------------------------------
# smoothstep / cutoff


def test_smoothstep_endpoint_and_symmetry():
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0
    assert smoothstep(-3.0) == 0.0 and smoothstep(4.0) == 1.0
    t = np.linspace(0.0, 1.0, 201)
    assert np.max(np.abs(smoothstep(t) + smoothstep(1.0 - t) - 1.0)) < 1e-12
    assert np.all(np.diff(smoothstep(t)) >= -1e-15)


def test_smoothstep_midpoint_and_peak_slope_frozen():
    assert abs(smoothstep(0.5) - 0.5) < 1e-15
    # 630 * 0.5^8 = 2.4609375
    assert abs(smoothstep_slope(0.5) - 2.4609375) < 1e-15
    assert smoothstep_slope(0.0) == 0.0 and smoothstep_slope(1.0) == 0.0


def test_smoothstep_slope_matches_difference_quotient():
    t = np.linspace(0.05, 0.95, 181)
    eps = 1e-4  # larger step: polynomial cancellation noise ~3e-13/eps
    fd = (smoothstep(t + eps) - smoothstep(t - eps)) / (2 * eps)
    assert np.max(np.abs(fd - smoothstep_slope(t))) < 1e-6


def test_cutoff_regions_exact():
    g = make_grid(1, 401)
    cut = Cutoff(g)
    r = g.radius()
    assert np.all(cut.values[r <= 0.5] == 1.0)
    assert np.all(cut.values[r >= 0.75] == 0.0)
    assert np.all((cut.values >= 0.0) & (cut.values <= 1.0))
    # radially non-increasing
    x = g.coords[:, 0]
    right = x >= 0.0
    assert np.all(np.diff(cut.values[right]) <= 1e-15)


def test_cutoff_gradient_matches_grid_derivative():
    errs = []
    for N in (401, 801):
        g = make_grid(1, N)
        cut = Cutoff(g)
        d_grid = derivative(cut.a, (1,)).values
        errs.append(np.max(np.abs(d_grid - cut.gradient(0).values)))
    assert errs[0] < 0.05
    assert 2.5 < errs[0] / errs[1] < 6.0  # second-order shrinkage


def test_cutoff_2d_gradient_is_radial():
    g = make_grid(2, 65)
    cut = Cutoff(g)
    x, y = g.coords[:, 0], g.coords[:, 1]
    # tangential component of the gradient vanishes analytically
    tang = cut.gradient(0).values * (-y) + cut.gradient(1).values * x
    assert np.max(np.abs(tang)) < 1e-12


def test_cutoff_validation():
    g = make_grid(1, 101)
    with pytest.raises(ValueError, match="flat_radius"):
        Cutoff(g, 0.8, 0.6)
    with pytest.raises(ValueError, match="support_radius"):
        Cutoff(g, 0.5, 1.0)


# ---------------------------------------------------------------------------
# quadratic load


def test_load_vanishes_for_zero_and_constant_fields():
    g = make_grid(1, 201)
    cut = Cutoff(g)
    zero = VecField(g, np.zeros((g.num_nodes, 3)))
    assert np.all(quadratic_load(cut, zero, 0).values == 0.0)
    const = VecField(g, np.tile([1.0, -2.0, 0.5], (g.num_nodes, 1)))
    assert np.max(np.abs(quadratic_load(cut, const, 0).values)) < 1e-9


@settings(max_examples=15, deadline=None)
@given(lam=st.floats(-4.0, 4.0, allow_nan=False))
def test_load_is_quadratic_in_v(lam):
    g = make_grid(1, 101)
    cut = Cutoff(g)
    v = smooth_vec(g)
    n1 = quadratic_load(cut, VecField(g, lam * v.values), 0).values
    n2 = lam * lam * quadratic_load(cut, v, 0).values
    assert np.max(np.abs(n1 - n2)) <= 1e-10 * max(1.0, np.max(np.abs(n2)))


def test_load_grid_mismatch_rejected():
    g1 = make_grid(1, 101)
    g2 = make_grid(1, 51)
    with pytest.raises(ValueError, match="grid"):
        quadratic_load(Cutoff(g1), smooth_vec(g2), 0)


def test_axis_order_validated():
    g = make_grid(2, 33)
    cut = Cutoff(g)
    v = smooth_vec(g)
    w, _ = load_potentials(cut, v)
    with pytest.raises(ValueError, match="axes"):
        potential_coupling_term(cut, v, 1, 0, w)
    with pytest.raises(ValueError, match="axes"):
        gradient_product_term(cut, v, 0, 2)


# ---------------------------------------------------------------------------
# coefficient oracles: the two continuum identities


def identity_defects(N):
    g = make_grid(1, N)
    cut = Cutoff(g)
    v = smooth_vec(g)
    a2 = cut.values**2
    a3 = cut.values**3
    d1 = g.derivative_matrix((1,))

    # product identity: d(a^2 v) . d(a^2 v) = a^2 * u2
    dav = d1 @ (a2[:, None] * v.values)
    lhs2 = np.sum(dav * dav, axis=1)
    rhs2 = a2 * gradient_product_term(cut, v, 0, 0).values
    e2 = np.max(np.abs(lhs2 - rhs2)) / max(1.0, np.max(np.abs(lhs2)))

    # coupling identity: 2 d(a^3 w) = a^2 * u1 (n=1, i=j=0)
    w, _ = load_potentials(cut, v)
    lhs1 = 2.0 * (d1 @ (a3 * w[0].values))
    rhs1 = a2 * potential_coupling_term(cut, v, 0, 0, potentials=w).values
    e1 = np.max(np.abs(lhs1 - rhs1)) / max(1.0, np.max(np.abs(lhs1)))
    return e1, e2


def test_continuum_identities_hold_at_second_order():
    # defects are O(h^2 * third derivatives); the sharp cutoff profile makes
    # the constant large, so the load-bearing check is the refinement ratio
    e1a, e2a = identity_defects(201)
    e1b, e2b = identity_defects(401)
    assert e1a < 0.05 and e2a < 0.05
    assert 2.5 < e1a / e1b < 6.0
    assert 2.5 < e2a / e2b < 6.0


def test_product_term_reduces_to_dv_dot_dv_on_flat_region():
    g = make_grid(1, 401)
    cut = Cutoff(g)
    v = smooth_vec(g)
    u2 = gradient_product_term(cut, v, 0, 0).values
    dv = g.derivative_matrix((1,)) @ v.values
    ref = np.sum(dv * dv, axis=1)
    flat = g.radius() <= 0.5 - 2.0 * g.spacing
    assert np.max(np.abs(u2[flat] - ref[flat])) < 1e-12


# ---------------------------------------------------------------------------
# support / boundary / roundtrip


def test_all_corrections_vanish_exactly_outside_support():
    for dim, N in ((1, 201), (2, 33)):
        g = make_grid(dim, N)
        cut = Cutoff(g)
        v = smooth_vec(g)
        outside = g.radius() >= 0.75
        w, _ = load_potentials(cut, v)
        p = tangential_correction(cut, v, potentials=w)
        q = normal_correction(cut, v, potentials=w)
        assert np.all(p.values[outside] == 0.0)
        assert np.all(q.values[outside] == 0.0)
        for i, j in sym_indices(dim):
            u1 = potential_coupling_term(cut, v, i, j, potentials=w)
            u2 = gradient_product_term(cut, v, i, j)
            assert np.all(u1.values[outside] == 0.0)
            assert np.all(u2.values[outside] == 0.0)


def test_laplacian_of_correction_inverts_back_exactly():
    # every term carries a factor of a/da, so the correction is zero near
    # the boundary and the solve reproduces it at roundoff level
    for dim, N in ((1, 201), (2, 33)):
        g = make_grid(dim, N)
        cut = Cutoff(g)
        v = smooth_vec(g)
        q = normal_correction(cut, v, load_potentials(cut, v)[0])
        scale = max(1.0, np.max(np.abs(q.values)))
        for k in range(q.values.shape[1]):
            m = laplacian(ScalarField(g, q.values[:, k]))
            back = solve_dirichlet(m).u.values
            assert np.max(np.abs(back - q.values[:, k])) < 1e-10 * scale


def test_correction_zero_for_zero_field():
    g = make_grid(1, 101)
    cut = Cutoff(g)
    zero = VecField(g, np.zeros((g.num_nodes, 3)))
    w, _ = load_potentials(cut, zero)
    assert np.all(normal_correction(cut, zero, w).values == 0.0)
    assert np.all(tangential_correction(cut, zero, w).values == 0.0)


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(-3.0, 3.0, allow_nan=False))
def test_tangential_correction_quadratic_homogeneity(lam):
    g = make_grid(1, 101)
    cut = Cutoff(g)
    v = smooth_vec(g)
    lam_v = VecField(g, lam * v.values)
    p1 = tangential_correction(cut, lam_v, load_potentials(cut, lam_v)[0]).values
    p2 = lam * lam * tangential_correction(cut, v, load_potentials(cut, v)[0]).values
    assert np.max(np.abs(p1 - p2)) <= 1e-10 * max(1.0, np.max(np.abs(p2)))


def test_continuity_witnesses_finite():
    g = make_grid(1, 81)
    rep = continuity_witnesses(Cutoff(g), samples=10, alpha=0.5, seed=5)
    for key in ("load", "laplacian", "tangential", "normal"):
        assert np.isfinite(rep[key])
        assert rep[key] >= 0.0
