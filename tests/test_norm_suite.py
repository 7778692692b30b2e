"""The verify-appendix calls: frozen reports and seminorm/solve counts.

The reports are frozen as repr strings and compared exactly: reusing a
seminorm or a load potential must not move a single bit of any witness.
The strings are those of the one-order-at-a-time computation, with each
D^s applied as its per-axis tables in turn (numpy 2.4, x86-64); a numpy
whose sin/cos round differently changes them.  The counts
pin how many lag sweeps (Grid.quotient_max) and Dirichlet solves each call
makes per sample.  The calls measure each corpus as stacks of samples; the
stacked forms of holder_norms, the Dirichlet solve and leibniz_defect are
checked here against one sample at a time, bit for bit.
"""

import numpy as np
import pytest

# holder_norms is read as grid.holder_norms, so that the frozen reports can
# also be checked against a grid module that has only holder_norm
from isoperturb import grid
from isoperturb.grid import (
    Grid, ScalarField, VecField, check_inequalities, leibniz_defect, make_grid, multi_indices, random_waves,
)
from isoperturb.operators import Cutoff, continuity_witnesses
from isoperturb.poisson import PoissonSolver, _supported_sample, elliptic_monitors, solve_dirichlet

SEED = 7

INTERVAL_REPORT = (
    "{'product_violations': 0, 'product_max_ratio': 0.3294911757787078, "
    "'leibniz_max_err': 4.854859630050269e-12, 'embed_witness': 0.5202547364950049, "
    "'samples': 3, 'alpha': 0.5, 'scalar_bilinear_witness_m1': 0.21924357774208408, "
    "'dot_bilinear_witness_m1': 0.09109615325098447, "
    "'scalar_bilinear_witness_m2': 0.20497519433670172, "
    "'dot_bilinear_witness_m2': 0.06911369279112538}"
)

DISK_REPORT = (
    "{'product_violations': 0, 'product_max_ratio': 0.47479602813085037, "
    "'leibniz_max_err': 4.0975112833623836e-13, 'embed_witness': 0.47157412678366545, "
    "'samples': 1, 'alpha': 0.5, 'scalar_bilinear_witness_m1': 0.22175764500504225, "
    "'dot_bilinear_witness_m1': 0.055855602399765246, "
    "'scalar_bilinear_witness_m2': 0.1498227679562563, "
    "'dot_bilinear_witness_m2': 0.04349130548739565}"
)

CONTINUITY_REPORT = (
    "{'load': 0.0013749501658934546, 'laplacian': 0.5676339434093552, 'tangential': "
    "0.004237009668153408, 'normal': 0.568227439750263, 'samples': 4, 'alpha': 0.5}"
)

ELLIPTIC_REPORT = (
    "{'schauder_ratio': 1.1876290508174159, 'higher_order_ratio_m1': "
    "0.8695465197787585, 'higher_order_ratio_m2': 0.9793992922075778, "
    "'linearity_defect': 5.551115123125783e-17, 'samples': 4, 'alpha': 0.5, "
    "'support_radius': 0.75}"
)


@pytest.fixture(scope="module")
def interval():
    return make_grid(1, 201)


def _counter(monkeypatch, cls, name):
    calls = [0]
    inner = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_check_inequalities_interval_report_is_frozen(interval):
    rep = check_inequalities(interval, samples=3, alpha=0.5, seed=SEED)
    assert repr(rep) == INTERVAL_REPORT


def test_check_inequalities_disk_report_is_frozen():
    rep = check_inequalities(make_grid(2, 33), samples=1, alpha=0.5, seed=SEED)
    assert repr(rep) == DISK_REPORT


def test_continuity_witnesses_report_is_frozen(interval):
    rep = continuity_witnesses(Cutoff(interval), samples=4, alpha=0.5, seed=SEED)
    assert repr(rep) == CONTINUITY_REPORT


def test_elliptic_monitors_report_is_frozen(interval):
    rep = elliptic_monitors(interval, samples=4, alpha=0.5, seed=SEED)
    assert repr(rep) == ELLIPTIC_REPORT


@pytest.mark.parametrize("dim,resolution,samples,per_sample", [
    # 8 field components (scalars u, v, uv, w1.w2; two-vectors w1, w2) x (C^0, D^1, D^2)
    (1, 201, 2, 24),
    # the same 8 components x (C^0, 2 first and 3 second derivatives)
    (2, 33, 1, 48),
])
def test_check_inequalities_takes_each_seminorm_once(monkeypatch, dim, resolution,
                                                     samples, per_sample):
    g = make_grid(dim, resolution)
    calls = _counter(monkeypatch, Grid, "quotient_max")
    check_inequalities(g, samples=samples, alpha=0.5, seed=SEED)
    assert calls[0] == samples * per_sample


def test_elliptic_monitors_takes_each_seminorm_once(monkeypatch, interval):
    # f at orders 0..2: 3 sweeps; u at orders 2..4: C^0, D^2, D^3, D^4
    calls = _counter(monkeypatch, Grid, "quotient_max")
    elliptic_monitors(interval, samples=3, alpha=0.5, seed=SEED)
    assert calls[0] == 3 * 7


def test_continuity_witnesses_solves_potentials_once_per_field(monkeypatch, interval):
    # one load potential per axis for each of v1 and v2; the normal and the
    # tangential correction share them.  A solve takes a stack of right
    # sides, so the count is of solved columns
    columns = [0]
    inner = PoissonSolver.solve

    def counted(self, f):
        columns[0] += np.shape(f)[1] if np.ndim(f) == 2 else 1
        return inner(self, f)

    monkeypatch.setattr(PoissonSolver, "solve", counted)
    continuity_witnesses(Cutoff(interval), samples=3, alpha=0.5, seed=SEED)
    assert columns[0] == 3 * 2


def test_holder_norms_takes_each_seminorm_once(monkeypatch, interval):
    # per column: the C^{0,alpha} part, D^1 and D^2, one lag sweep each
    x = interval.coords[:, 0]
    calls = _counter(monkeypatch, Grid, "quotient_max")
    for q in (1, 2, 5):
        calls[0] = 0
        fld = VecField(interval, np.column_stack([np.sin(k * x) for k in range(q)]))
        grid.holder_norms(fld, (0, 1, 2), 0.5)
        assert calls[0] == 3 * q


# ---------------------------------------------------------------------------
# stacked forms, one sample at a time


@pytest.mark.parametrize("dim,resolution", [(1, 201), (2, 33)])
@pytest.mark.parametrize("orders", [(0, 1, 2), (2, 3, 4)])
# 7 scalar columns take the stencils' wide-stack path, 3 two-component
# samples (6 columns) their tiled one
@pytest.mark.parametrize("samples,k", [(7, 1), (3, 2)])
def test_stacked_holder_norms_are_each_fields_own(dim, resolution, orders, samples, k):
    g = make_grid(dim, resolution)
    stack = random_waves(g, np.random.default_rng(resolution), samples, k)
    norms = grid.holder_norms(ScalarField(g, stack[..., 0]) if k == 1 else VecField(g, stack), orders, 0.5)
    assert all(norms[m].shape == (samples,) for m in orders)
    for j in range(samples):
        field = ScalarField(g, stack[:, j, 0]) if k == 1 else VecField(g, stack[:, j])
        alone = grid.holder_norms(field, orders, 0.5)
        for m in orders:
            assert norms[m][j].tobytes() == np.float64(alone[m]).tobytes(), (m, j)


@pytest.mark.parametrize("dim,resolution", [(1, 201), (2, 25)])
def test_stacked_solve_is_each_columns_own(dim, resolution):
    g = make_grid(dim, resolution)
    rng = np.random.default_rng(resolution)
    f = np.column_stack([_supported_sample(g, rng, 5), rng.normal(size=(g.num_nodes, 4))])
    sol = solve_dirichlet(g, f)
    assert sol.u.shape == f.shape and sol.residual_sup.shape == (9,)
    for j in range(f.shape[1]):
        alone = solve_dirichlet(g, f[:, j])
        assert sol.u[:, j].tobytes() == alone.u.tobytes(), j
        assert sol.residual_sup[j] == alone.residual_sup, j


@pytest.mark.parametrize("dim,resolution", [(1, 201), (2, 33)])
def test_stacked_leibniz_defect_is_each_samples_own(dim, resolution):
    g = make_grid(dim, resolution)
    waves = random_waves(g, np.random.default_rng(resolution), 2, 8)
    u, v = waves[:, 0], waves[:, 1]
    for beta in multi_indices(dim, 1) + multi_indices(dim, 2):
        stacked = leibniz_defect(g, u, v, beta)
        assert stacked.shape == (8,)
        for j in range(8):
            assert stacked[j] == leibniz_defect(g, u[:, j], v[:, j], beta), (beta, j)
