"""The verify-appendix calls: frozen reports and seminorm/solve counts.

The reports are frozen as repr strings and compared exactly: reusing a
seminorm or a load potential must not move a single bit of any witness.
The strings are those of the one-order-at-a-time computation, with each
D^s applied as its per-axis tables in turn (numpy 2.4, x86-64); a numpy
whose sin/cos round differently changes them.  The counts
pin how many lag sweeps (Grid.quotient_max) and Dirichlet solves each call
makes per sample.  The calls measure each corpus as stacks of samples; the
stacked forms of holder_norms, the Dirichlet solve and leibniz_defect are
checked here against one sample at a time, bit for bit, and each
witness, one array maximum over its corpus, against the per-sample loops
it replaced, kept here as the reference.
"""

import numpy as np
import pytest

# holder_norms is read as grid.holder_norms, so that the frozen reports can
# also be checked against a grid module that has only holder_norm
from isoperturb import grid
from isoperturb.grid import (
    Grid, ScalarField, VecField, _affine_corpus, _scalar_corpus, check_inequalities, laplacian, leibniz_defect,
    make_grid, multi_indices, nodes_first, random_waves,
)
from isoperturb.operators import (
    Cutoff, continuity_witnesses, normal_correction, quadratic_load, tangential_correction,
)
from isoperturb.poisson import (
    _MONITOR_SUPPORT, PoissonSolver, _supported_sample, elliptic_monitors, solve_dirichlet,
)

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


# ---------------------------------------------------------------------------
# the per-sample reference: each witness as a loop over the samples, taking
# Python-float maxima of norms summed one Python float at a time


def _loop_norms(fld, orders, alpha):
    """holder_norms of a stack as {m: [float per sample]}, each total a
    Python float sum: component by component, the C^{0,alpha} part first."""
    g = fld.grid
    vals = fld.values[..., None] if isinstance(fld, ScalarField) else fld.values
    k = vals.shape[-1]
    cols = vals.reshape(len(vals), -1)
    parts = {m: [()] + (multi_indices(g.dim, m) if m > 0 else []) for m in orders}
    norms = {}
    for s in dict.fromkeys(s for keys in parts.values() for s in keys):
        rows = np.ascontiguousarray((cols if s == () else g.derivative_matrix(s) @ cols).T)
        sups = np.abs(rows).max(axis=1).tolist()
        norms[s] = [sup + g.quotient_max(row, alpha) for row, sup in zip(rows, sups)]
    totals = {}
    for m, keys in parts.items():
        sums = []
        for j in range(0, cols.shape[1], k):
            total = 0.0
            for c in range(j, j + k):
                for s in keys:
                    total += norms[s][c]
            sums.append(total)
        totals[m] = sums
    return totals


def _loop_check_inequalities(grid, samples, alpha, seed):
    rng = np.random.default_rng(seed)
    report = {
        "product_violations": 0,
        "product_max_ratio": 0.0,
        "leibniz_max_err": 0.0,
        "embed_witness": 0.0,
        "samples": int(samples),
        "alpha": float(alpha),
    }
    for m in (1, 2):
        for key in ("scalar_bilinear", "dot_bilinear"):
            report[f"{key}_witness_m{m}"] = 0.0
    scalars, affine, vectors = (np.empty((samples, 2, 6)), np.empty((samples, 2, 2 * grid.dim)),
                                np.empty((samples, 5, 6)))
    for k in range(samples):
        scalars[k] = rng.uniform(-1.0, 1.0, (2, 6))
        affine[k] = rng.uniform(-2.0, 2.0, (2, 2 * grid.dim))
        vectors[k] = rng.uniform(-1.0, 1.0, (5, 6))
    u, v = _scalar_corpus(grid, scalars[:, 0]), _scalar_corpus(grid, scalars[:, 1])
    ua, va = _affine_corpus(grid, affine[:, 0]), _affine_corpus(grid, affine[:, 1])
    w1, w2 = _scalar_corpus(grid, vectors[:, 1:3]), _scalar_corpus(grid, vectors[:, 3:])
    nu, nv, nuv, ndot = (_loop_norms(ScalarField(grid, f), (0, 1, 2), alpha)
                         for f in (u, v, u * v, (w1 * w2).sum(axis=-1)))
    nw1, nw2 = (_loop_norms(VecField(grid, w), (0, 1, 2), alpha) for w in (w1, w2))
    scales = np.max(np.abs(ua * va), axis=0).tolist()
    defects = [leibniz_defect(grid, ua, va, beta).tolist()
               for beta in multi_indices(grid.dim, 1) + multi_indices(grid.dim, 2)]
    for j in range(samples):
        lhs = nuv[0][j]
        rhs = nu[0][j] * nv[0][j]
        ratio = lhs / rhs if rhs > 0 else 0.0
        report["product_max_ratio"] = max(report["product_max_ratio"], ratio)
        if lhs > rhs * (1.0 + 1e-12):
            report["product_violations"] += 1
        report["embed_witness"] = max(report["embed_witness"], nu[1][j] / max(nu[2][j], 1e-300))
        scale = max(1.0, scales[j])
        for defect in defects:
            report["leibniz_max_err"] = max(report["leibniz_max_err"], defect[j] / scale)
        for m in (1, 2):
            report[f"scalar_bilinear_witness_m{m}"] = max(
                report[f"scalar_bilinear_witness_m{m}"], nuv[m][j] / max(nu[m][j] * nv[m][j], 1e-300)
            )
            report[f"dot_bilinear_witness_m{m}"] = max(
                report[f"dot_bilinear_witness_m{m}"], ndot[m][j] / max(nw1[m][j] * nw2[m][j], 1e-300)
            )
    return report


def _loop_continuity_witnesses(cut, samples, alpha, seed):
    rng = np.random.default_rng(seed)
    g = cut.grid
    out = {"load": 0.0, "laplacian": 0.0, "tangential": 0.0, "normal": 0.0}
    waves = random_waves(g, rng, samples, 2, 3)
    waves *= nodes_first(cut.values, waves.shape[1:])
    v1, v2 = (np.ascontiguousarray(waves[:, :, i]) for i in (0, 1))
    n1, n2, n12 = (np.array(_loop_norms(VecField(g, v), (2,), alpha)[2]) for v in (v1, v2, v1 - v2))
    size = (n1 + n2) * n12
    kept = ~(size < 1e-14)
    v1, v2, size = v1[:, kept], v2[:, kept], size[kept].tolist()
    loads1, loads2 = quadratic_load(cut, v1), quadratic_load(cut, v2)
    loads = [_loop_norms(ScalarField(g, l1 - l2), (0,), alpha)[0] for l1, l2 in zip(loads1, loads2)]
    w1, w2 = ([solve_dirichlet(g, n).u for n in side] for side in (loads1, loads2))
    dq = normal_correction(cut, v1, w1) - normal_correction(cut, v2, w2)
    normal = _loop_norms(VecField(g, dq), (2,), alpha)[2]
    lap = laplacian(g, dq)
    lap = np.array(_loop_norms(ScalarField(g, lap.reshape(len(lap), -1)), (0,), alpha)[0]).reshape(lap.shape[1:])
    lap = lap.tolist()
    dp = tangential_correction(cut, w1) - tangential_correction(cut, w2)
    tangential = _loop_norms(VecField(g, dp), (2,), alpha)[2]
    for j, sz in enumerate(size):
        for load in loads:
            out["load"] = max(out["load"], load[j] / sz)
        out["normal"] = max(out["normal"], normal[j] / sz)
        for dm in lap[j]:
            out["laplacian"] = max(out["laplacian"], dm / sz)
        out["tangential"] = max(out["tangential"], tangential[j] / sz)
    out["samples"] = samples
    out["alpha"] = alpha
    return out


def _loop_elliptic_monitors(grid, samples, alpha, seed):
    rng = np.random.default_rng(seed)
    f = _supported_sample(grid, rng, samples)
    nf = {m: np.array(n) for m, n in _loop_norms(ScalarField(grid, f), (0, 1, 2), alpha).items()}
    kept = ~(nf[0] < 1e-14)
    f, nf = f[:, kept], {m: n[kept].tolist() for m, n in nf.items()}
    u = solve_dirichlet(grid, f).u
    nu = _loop_norms(ScalarField(grid, u), (2, 3, 4), alpha)
    schauder = 0.0
    higher = {1: 0.0, 2: 0.0}
    for j in range(f.shape[1]):
        schauder = max(schauder, nu[2][j] / nf[0][j])
        for m in (1, 2):
            higher[m] = max(higher[m], nu[m + 2][j] / nf[m][j])
    lin = 0.0
    if f.shape[1] >= 2:
        a, b = 1.7, -0.4
        mixed = solve_dirichlet(grid, a * f[:, -2] + b * f[:, -1]).u
        sep = a * u[:, -2] + b * u[:, -1]
        scale = max(1.0, float(np.max(np.abs(sep))))
        lin = float(np.max(np.abs(mixed - sep))) / scale
    return {
        "schauder_ratio": schauder,
        "higher_order_ratio_m1": higher[1],
        "higher_order_ratio_m2": higher[2],
        "linearity_defect": lin,
        "samples": samples,
        "alpha": alpha,
        "support_radius": _MONITOR_SUPPORT,
    }


REFERENCE_SEED = 11  # not SEED, and sizes the frozen reports do not use


@pytest.mark.parametrize("dim,resolution,samples", [(1, 101, 6), (2, 33, 2)])
def test_inequality_witnesses_are_the_per_sample_loops(dim, resolution, samples):
    g = make_grid(dim, resolution)
    ref = _loop_check_inequalities(g, samples, 0.5, REFERENCE_SEED)
    assert repr(check_inequalities(g, samples=samples, alpha=0.5, seed=REFERENCE_SEED)) == repr(ref)


def test_monitor_witnesses_are_the_per_sample_loops():
    g = make_grid(1, 101)
    cut = Cutoff(g)
    assert (repr(continuity_witnesses(cut, samples=5, alpha=0.5, seed=REFERENCE_SEED))
            == repr(_loop_continuity_witnesses(cut, 5, 0.5, REFERENCE_SEED)))
    assert (repr(elliptic_monitors(g, samples=5, alpha=0.5, seed=REFERENCE_SEED))
            == repr(_loop_elliptic_monitors(g, 5, 0.5, REFERENCE_SEED)))
