"""The verify-appendix calls: frozen reports and seminorm/solve counts.

The reports are frozen as repr strings and compared exactly: reusing a
seminorm or a load potential must not move a single bit of any witness.
The strings are those of the one-order-at-a-time computation, with each
D^s applied as its per-axis tables in turn (numpy 2.4, x86-64); a numpy
whose sin/cos round differently changes them.  The counts
pin how many lag sweeps (Grid.quotient_max) and Dirichlet solves each call
makes per sample.
"""

import numpy as np
import pytest

# holder_norms is read as grid.holder_norms, so that the frozen reports can
# also be checked against a grid module that has only holder_norm
from isoperturb import grid
from isoperturb.grid import Grid, VecField, check_inequalities, make_grid
from isoperturb.operators import Cutoff, continuity_witnesses
from isoperturb.poisson import PoissonSolver, elliptic_monitors

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
    "{'product_violations': 0, 'product_max_ratio': 0.47088757871217146, "
    "'leibniz_max_err': 5.767637928477455e-14, 'embed_witness': 0.08949667974700459, "
    "'samples': 1, 'alpha': 0.5, 'scalar_bilinear_witness_m1': 0.146072794599921, "
    "'dot_bilinear_witness_m1': 0.03420313444537123, "
    "'scalar_bilinear_witness_m2': 0.016871622279413252, "
    "'dot_bilinear_witness_m2': 0.004945887110929103}"
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
    # tangential correction share them
    calls = _counter(monkeypatch, PoissonSolver, "solve")
    continuity_witnesses(Cutoff(interval), samples=3, alpha=0.5, seed=SEED)
    assert calls[0] == 3 * 2


def test_holder_norms_takes_each_seminorm_once(monkeypatch, interval):
    # per column: the C^{0,alpha} part, D^1 and D^2, one lag sweep each
    x = interval.coords[:, 0]
    calls = _counter(monkeypatch, Grid, "quotient_max")
    for q in (1, 2, 5):
        calls[0] = 0
        fld = VecField(interval, np.column_stack([np.sin(k * x) for k in range(q)]))
        grid.holder_norms(fld, (0, 1, 2), 0.5)
        assert calls[0] == 3 * q
