"""Correction-operator tests.

The load/coupling/product coefficients are validated against the two
continuum identities they were built to satisfy, for n = 1 (i = j = 0):
    d(a^2 v) . d(a^2 v)   = a^2 * normal_correction(v, w = 0)
    2 d(a^3 w)            = -a^2 * normal_correction(v = 0, w)
whose discrete defect must shrink at second order.  With w = 0 the
coupling part of the normal correction is +-0, and with v = 0 its product
part is, so each side reads one part bit for bit (up to the sign of a
zero).

The operators are also compared, byte for byte, with a reference kept
below: the per-axis load and the per-pair product and coupling terms
they were written as before each derivative was taken once.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoperturb import grid as grid_module
from isoperturb.embeddings import ParabolaChart, TorusChart
from isoperturb.fixedpoint import bump_perturbation, fixed_point_map
from isoperturb.frame import build_frame
from isoperturb.grid import (
    laplacian, make_grid, sym_indices,
)
from isoperturb.operators import (
    Cutoff,
    continuity_witnesses,
    load_potentials,
    normal_correction,
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
    return np.column_stack(cols[:q])


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
        d_grid = g.derivative_matrix((1,)) @ cut.values
        errs.append(np.max(np.abs(d_grid - cut.grad[0])))
    assert errs[0] < 0.05
    assert 2.5 < errs[0] / errs[1] < 6.0  # second-order shrinkage


def test_cutoff_2d_gradient_is_radial():
    g = make_grid(2, 65)
    cut = Cutoff(g)
    x, y = g.coords[:, 0], g.coords[:, 1]
    # tangential component of the gradient vanishes analytically
    tang = cut.grad[0] * (-y) + cut.grad[1] * x
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
    zero = np.zeros((g.num_nodes, 3))
    assert np.all(quadratic_load(cut, zero)[0] == 0.0)
    const = np.tile([1.0, -2.0, 0.5], (g.num_nodes, 1))
    assert np.max(np.abs(quadratic_load(cut, const)[0])) < 1e-9


@settings(max_examples=15, deadline=None)
@given(lam=st.floats(-4.0, 4.0, allow_nan=False))
def test_load_is_quadratic_in_v(lam):
    g = make_grid(1, 101)
    cut = Cutoff(g)
    v = smooth_vec(g)
    n1 = quadratic_load(cut, lam * v)[0]
    n2 = lam * lam * quadratic_load(cut, v)[0]
    assert np.max(np.abs(n1 - n2)) <= 1e-10 * max(1.0, np.max(np.abs(n2)))


# ---------------------------------------------------------------------------
# coefficient oracles: the two continuum identities


def product_part(cut, v):
    """The gradient-product part of Q(v): Q(v) with zero potentials."""
    zero = [np.zeros(cut.grid.num_nodes)] * cut.grid.dim
    return normal_correction(cut, v, zero)


def coupling_part(cut, w):
    """The coupling part of Q: -Q(0) with potentials w."""
    zero = np.zeros((cut.grid.num_nodes, 3))
    return -normal_correction(cut, zero, w)


def identity_defects(N):
    g = make_grid(1, N)
    cut = Cutoff(g)
    v = smooth_vec(g)
    a2 = cut.values**2
    a3 = cut.values**3
    d1 = g.derivative_matrix((1,))

    # product identity: d(a^2 v) . d(a^2 v) = a^2 * u2
    dav = d1 @ (a2[:, None] * v)
    lhs2 = np.sum(dav * dav, axis=1)
    rhs2 = a2 * product_part(cut, v)[:, 0]
    e2 = np.max(np.abs(lhs2 - rhs2)) / max(1.0, np.max(np.abs(lhs2)))

    # coupling identity: 2 d(a^3 w) = a^2 * u1 (n=1, i=j=0)
    w, _ = load_potentials(cut, v)
    lhs1 = 2.0 * (d1 @ (a3 * w[0]))
    rhs1 = a2 * coupling_part(cut, w)[:, 0]
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
    u2 = product_part(cut, v)[:, 0]
    dv = g.derivative_matrix((1,)) @ v
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
        p = tangential_correction(cut, potentials=w)
        q = normal_correction(cut, v, potentials=w)
        assert np.all(p[outside] == 0.0)
        assert np.all(q[outside] == 0.0)
        assert np.all(coupling_part(cut, w)[outside] == 0.0)
        assert np.all(product_part(cut, v)[outside] == 0.0)


def test_laplacian_of_correction_inverts_back_exactly():
    # every term carries a factor of a/da, so the correction is zero near
    # the boundary and the solve reproduces it at roundoff level
    for dim, N in ((1, 201), (2, 33)):
        g = make_grid(dim, N)
        cut = Cutoff(g)
        v = smooth_vec(g)
        q = normal_correction(cut, v, load_potentials(cut, v)[0])
        scale = max(1.0, np.max(np.abs(q)))
        for k in range(q.shape[1]):
            m = laplacian(g, q[:, k])
            back = solve_dirichlet(g, m).u
            assert np.max(np.abs(back - q[:, k])) < 1e-10 * scale


def test_correction_zero_for_zero_field():
    g = make_grid(1, 101)
    cut = Cutoff(g)
    zero = np.zeros((g.num_nodes, 3))
    w, _ = load_potentials(cut, zero)
    assert np.all(normal_correction(cut, zero, w) == 0.0)
    assert np.all(tangential_correction(cut, w) == 0.0)


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(-3.0, 3.0, allow_nan=False))
def test_tangential_correction_quadratic_homogeneity(lam):
    g = make_grid(1, 101)
    cut = Cutoff(g)
    v = smooth_vec(g)
    lam_v = lam * v
    p1 = tangential_correction(cut, load_potentials(cut, lam_v)[0])
    p2 = lam * lam * tangential_correction(cut, load_potentials(cut, v)[0])
    assert np.max(np.abs(p1 - p2)) <= 1e-10 * max(1.0, np.max(np.abs(p2)))


def test_continuity_witnesses_finite():
    g = make_grid(1, 81)
    rep = continuity_witnesses(Cutoff(g), samples=10, alpha=0.5, seed=5)
    for key in ("load", "laplacian", "tangential", "normal"):
        assert np.isfinite(rep[key])
        assert rep[key] >= 0.0


# ---------------------------------------------------------------------------
# the operators as they were written per axis and per pair, bit for bit

UNIT = {1: [(1,)], 2: [(1, 0), (0, 1)]}


def reference_load(cut, v, axis):
    g = cut.grid
    lap_v = laplacian(g, v)
    dv = g.derivative_matrix(UNIT[g.dim][axis]) @ v
    da = cut.grad[axis]
    return 2.0 * da * np.sum(lap_v * v, axis=1) + cut.values * np.sum(lap_v * dv, axis=1)


def reference_coupling(cut, i, j, potentials):
    g = cut.grid
    a = cut.values
    return (
        a * (g.derivative_matrix(UNIT[g.dim][i]) @ potentials[j])
        + a * (g.derivative_matrix(UNIT[g.dim][j]) @ potentials[i])
        + 3.0 * cut.grad[i] * potentials[j]
        + 3.0 * cut.grad[j] * potentials[i]
    )


def reference_product(cut, v, i, j):
    g = cut.grid
    a = cut.values
    dai, daj = cut.grad[i], cut.grad[j]
    dvi = g.derivative_matrix(UNIT[g.dim][i]) @ v
    dvj = g.derivative_matrix(UNIT[g.dim][j]) @ v
    return (
        4.0 * dai * daj * np.sum(v * v, axis=1)
        + 2.0 * a * dai * np.sum(dvj * v, axis=1)
        + 2.0 * a * daj * np.sum(dvi * v, axis=1)
        + a * a * np.sum(dvi * dvj, axis=1)
    )


def reference_normal(cut, v, potentials):
    cols = [reference_product(cut, v, i, j) - reference_coupling(cut, i, j, potentials)
            for i, j in sym_indices(cut.grid.dim)]
    return np.column_stack(cols)


def reference_tangential(cut, potentials):
    return np.column_stack([cut.values * w for w in potentials])


def smooth_field(grid, q):
    """q smooth columns, each a different product of a sine and a cosine."""
    x = grid.coords[:, 0]
    y = grid.coords[:, 1] if grid.dim == 2 else 0.0
    return np.column_stack([
        np.sin((k + 1) * x + 0.3 * k) * np.cos(0.5 * k * y + 0.2) for k in range(q)
    ])


def assert_same_bytes(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dim,N", [(1, 201), (2, 17), (2, 33)])
@pytest.mark.parametrize("field", ["smooth-2", "smooth-3", "smooth-6", "random"])
def test_operators_are_the_per_axis_and_per_pair_reference_bit_for_bit(dim, N, field):
    g = make_grid(dim, N)
    cut = Cutoff(g, 0.4, 0.85)
    if field == "random":
        v = np.random.default_rng(7).standard_normal((g.num_nodes, 3))
    else:
        v = smooth_field(g, int(field.split("-")[1]))
    for axis, load in enumerate(quadratic_load(cut, v)):
        assert_same_bytes(load, reference_load(cut, v, axis))
    w, _ = load_potentials(cut, v)
    assert_same_bytes(tangential_correction(cut, w), reference_tangential(cut, w))
    assert_same_bytes(normal_correction(cut, v, w), reference_normal(cut, v, w))


@pytest.mark.parametrize("chart,dim,N,products", [
    (ParabolaChart(), 1, 201, 5),
    (TorusChart(), 2, 17, 10),
])
def test_one_update_step_takes_each_derivative_once(monkeypatch, chart, dim, N, products):
    # one load_potentials and one fixed_point_map: the Laplacian and D_i v
    # in the loads, then D_i v and every D_i w_j in Q (the interval's
    # Dirichlet solve adds one product of its own)
    g = make_grid(dim, N)
    frame = build_frame(chart, g)
    cut = Cutoff(g)
    f = bump_perturbation(g, 0.01, 0.4)
    v = 1e-3 * smooth_field(g, frame.q)
    calls = []
    matmul = grid_module.Stencil.__matmul__

    def counted(self, x):
        calls.append(self)
        return matmul(self, x)

    monkeypatch.setattr(grid_module.Stencil, "__matmul__", counted)
    fixed_point_map(frame, cut, f, v, load_potentials(cut, v)[0])
    assert len(calls) == products
