"""Dirichlet-solver tests with analytic and manufactured-solution oracles.

The disk's block LU is also compared with scipy's sparse LU (splu) of the
same matrix, which it replaced; scipy.sparse is imported here only as that
reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import splu

from isoperturb.grid import laplacian, make_grid
from isoperturb.poisson import _solver_for, _supported_sample, elliptic_monitors, solve_dirichlet


def interval_grid(N):
    return make_grid(1, N)


def disk_grid(N):
    return make_grid(2, N)


# ---------------------------------------------------------------------------
# n = 1


def test_interval_sine_matches_sharp_eigen_oracle():
    # sin(pi x) is an exact eigenvector of the discrete operator, so the
    # solve error is analytically ((pi h/2)^2 / sin^2(pi h/2) - 1) * max|sin|
    for N in (51, 101, 201):
        g = interval_grid(N)
        x = g.coords[:, 0]
        sol = solve_dirichlet(g, -np.pi**2 * np.sin(np.pi * x))
        err = np.max(np.abs(sol.u - np.sin(np.pi * x)))
        h = g.spacing
        pred = (np.pi**2 * h * h / (4.0 * np.sin(np.pi * h / 2.0) ** 2) - 1.0) * np.max(
            np.abs(np.sin(np.pi * x))
        )
        assert abs(err - pred) < 1e-8 * pred
        assert np.all(sol.u[[0, -1]] == 0.0)
        assert sol.residual_sup < 1e-10


def test_interval_observed_order_is_two():
    errs = []
    for N in (51, 101, 201):
        g = interval_grid(N)
        x = g.coords[:, 0]
        sol = solve_dirichlet(g, -np.pi**2 * np.sin(np.pi * x))
        errs.append(np.max(np.abs(sol.u - np.sin(np.pi * x))))
    for e0, e1 in zip(errs, errs[1:]):
        order = np.log2(e0 / e1)
        assert 1.8 <= order <= 2.2


def test_interval_roundtrip_laplacian_recovers_f():
    g = interval_grid(401)
    x = g.coords[:, 0]
    f = np.sin(3.0 * x) + 0.5 * x * x
    sol = solve_dirichlet(g, f)
    lap = laplacian(g, sol.u)
    inner = slice(1, -1)
    assert np.max(np.abs(lap[inner] - f[inner])) < 1e-9


def test_zero_rhs_gives_zero_solution():
    g = interval_grid(101)
    sol = solve_dirichlet(g, np.zeros(g.num_nodes))
    assert np.max(np.abs(sol.u)) == 0.0


def test_nonfinite_rhs_rejected():
    g = interval_grid(101)
    bad = np.zeros(g.num_nodes)
    bad[g.num_nodes // 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_dirichlet(g, bad)


def test_grid_mismatch_rejected():
    # a field is its array: one sampled on another grid has the wrong length
    for g1, g2 in ((interval_grid(101), interval_grid(51)), (disk_grid(25), disk_grid(17))):
        with pytest.raises(ValueError, match="shape"):
            solve_dirichlet(g1, np.zeros(g2.num_nodes))
        with pytest.raises(ValueError, match="shape"):
            solve_dirichlet(g1, np.zeros((g1.num_nodes, 1)))


# ---------------------------------------------------------------------------
# n = 2


def test_disk_quartic_recovery_with_measured_superconvergence():
    # interior truncation cancels identically for this solution
    # (u_xxxx = -u_yyyy), so only boundary cells contribute: observed
    # ratio under doubling is ~6.9, faster than the generic 4.
    errs = {}
    for N in (33, 65):
        g = disk_grid(N)
        x, y = g.coords[:, 0], g.coords[:, 1]
        sol = solve_dirichlet(g, -12.0 * (x * x - y * y))
        ue = (1.0 - x * x - y * y) * (x * x - y * y)
        errs[N] = np.max(np.abs(sol.u - ue))
        assert sol.residual_sup < 1e-10
    assert errs[33] < 3e-4
    assert 5.5 < errs[33] / errs[65] < 8.5


def test_disk_generic_observed_order_is_two():
    errs = []
    for N in (33, 65):
        g = disk_grid(N)
        x, y = g.coords[:, 0], g.coords[:, 1]
        s, c = np.sin(x + 2.0 * y), np.cos(x + 2.0 * y)
        phi = 1.0 - x * x - y * y
        f = -4.0 * s - (4.0 * x + 8.0 * y) * c - 5.0 * phi * s
        sol = solve_dirichlet(g, f)
        errs.append(np.max(np.abs(sol.u - phi * s)))
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_disk_laplacian_of_quadratic():
    g = disk_grid(33)
    x, y = g.coords[:, 0], g.coords[:, 1]
    lap = laplacian(g, x * x + y * y)
    assert np.max(np.abs(lap - 4.0)) < 1e-9
    lap0 = laplacian(g, np.full(g.num_nodes, 3.7))
    assert np.max(np.abs(lap0)) < 1e-12


def test_solver_factorization_cached_per_grid():
    g = disk_grid(33)
    assert _solver_for(g) is _solver_for(g)


def _splu_of(table, m):
    """scipy's splu of the m x m matrix whose five-point table is table."""
    live = table.cols < m  # a zero weight on the pad slot is no entry
    rows = np.broadcast_to(np.arange(m), table.cols.shape)
    return splu(sp.csc_matrix((table.weights[live], (rows[live], table.cols[live])),
                              shape=(m, m)))


@pytest.mark.parametrize("N", [17, 25, 33, 49])
def test_disk_block_lu_agrees_with_splu(N):
    g = disk_grid(N)
    table = _solver_for(g)._matrix
    lu = _splu_of(table, g.num_nodes)
    x, y = g.coords[:, 0], g.coords[:, 1]
    phi = 1.0 - x * x - y * y
    rng = np.random.default_rng(N)
    # the manufactured forcings above, the monitors' supported samples and
    # unstructured right sides
    loads = [-12.0 * (x * x - y * y),
             -4.0 * np.sin(x + 2.0 * y) - (4.0 * x + 8.0 * y) * np.cos(x + 2.0 * y)
             - 5.0 * phi * np.sin(x + 2.0 * y)]
    loads += [_supported_sample(g, rng) for _ in range(4)]
    loads += [rng.normal(size=g.num_nodes) for _ in range(4)]
    for f in loads:
        sol = solve_dirichlet(g, f)
        ref = lu.solve(f)
        assert np.max(np.abs(sol.u - ref)) <= 1e-13 * np.max(np.abs(ref))
        # both residuals as the solver measures its own
        assert sol.residual_sup <= 2.0 * np.max(np.abs(table @ ref - f))


@pytest.mark.parametrize("N", [17, 25, 33, 49])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_disk_nonfinite_rhs_rejected(bad, N):
    g = disk_grid(N)
    f = np.zeros(g.num_nodes)
    f[g.num_nodes // 3] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_dirichlet(g, f)


@settings(max_examples=15, deadline=None)
@given(a=st.floats(-3.0, 3.0, allow_nan=False), b=st.floats(-3.0, 3.0, allow_nan=False))
def test_solve_is_linear(a, b):
    g = interval_grid(101)
    x = g.coords[:, 0]
    f1, f2 = np.sin(2.0 * x), np.cos(x) * x
    mixed = solve_dirichlet(g, a * f1 + b * f2).u
    sep = a * solve_dirichlet(g, f1).u + b * solve_dirichlet(g, f2).u
    assert np.max(np.abs(mixed - sep)) <= 1e-10 * max(1.0, np.max(np.abs(sep)))


# ---------------------------------------------------------------------------
# estimate monitors


def test_elliptic_monitors_record_finite_constants():
    g = interval_grid(81)
    rep = elliptic_monitors(g, samples=20, alpha=0.5, seed=3)
    assert np.isfinite(rep["schauder_ratio"]) and rep["schauder_ratio"] > 0
    assert np.isfinite(rep["higher_order_ratio_m1"])
    assert np.isfinite(rep["higher_order_ratio_m2"])
    assert rep["linearity_defect"] <= 1e-10


def test_elliptic_monitors_disk():
    g = disk_grid(33)
    rep = elliptic_monitors(g, samples=8, alpha=0.5, seed=4)
    assert np.isfinite(rep["schauder_ratio"])
    assert rep["linearity_defect"] <= 1e-10
