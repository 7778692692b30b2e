"""Atlas / gluing tests.

The partition of unity and the metric decomposition have exact algebraic
oracles (normalized bumps sum to 1 by construction; the chart pullback is
a scalar halfwidth^2 factor).  The glue pipeline is checked on calibrated
circle scenarios (frozen residual/horizon values), a torus smoke run, a
refined torus run at twice its scale, a forced-halving run, and degenerate
inputs (zero embedding, short horizon).
The pullback oracle is validated separately on the exact base embeddings
and a deliberately mis-scaled one with a closed-form residual.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoperturb import atlas as atlas_module
from isoperturb import embeddings
from isoperturb import family as family_module
from isoperturb.atlas import (
    Atlas,
    GlobalSolution,
    StageFailure,
    build_atlas,
    decompose_metric,
    glue_solve,
    pullback_residual,
    solution_residuals,
    write_embedding_csv,
)
from isoperturb.embeddings import CircleChart, TorusChart, base_embedding, make_mesh
from isoperturb.family import HorizonCollapse, MetricFamily, build_manifold_family
from isoperturb.fixedpoint import IterationConfig
from isoperturb.grid import make_grid
from isoperturb.operators import smoothstep


CFG = IterationConfig(tol=1e-9)
SMOKE_CFG = IterationConfig(tol=1e-8)


# ---------------------------------------------------------------- atlas


def test_build_atlas_validation():
    with pytest.raises(ValueError, match="at least 2"):
        build_atlas("circle", 1)
    with pytest.raises(ValueError, match="cannot cover the torus"):
        build_atlas("torus", 3)
    with pytest.raises(ValueError, match="cannot cover the torus"):
        build_atlas("torus", 5)
    with pytest.raises(ValueError, match="unknown manifold"):
        build_atlas("klein-bottle", 2)


def _coverage_margin(atlas, mesh):
    """The smallest sum of the partition bumps on build_atlas's probe mesh."""
    probe = make_mesh(atlas.manifold, mesh)
    return float(sum(atlas.bump(k, probe) for k in range(len(atlas.charts))).min())


def test_circle_atlas_geometry():
    atlas = build_atlas("circle", 2)
    assert len(atlas.charts) == 2
    assert atlas.charts[0].center[0] == 0.0
    assert atlas.charts[1].center[0] == pytest.approx(np.pi)
    assert atlas.charts[0].halfwidth == pytest.approx(1.5 * np.pi / 2)
    assert all(c.dim == 1 for c in atlas.charts)
    assert _coverage_margin(atlas, 2048) == pytest.approx(0.5947867824579516)


def test_torus_atlas_geometry():
    atlas = build_atlas("torus", 4)
    centers = sorted(tuple(np.round(c.center, 12)) for c in atlas.charts)
    pi = np.pi
    assert centers == sorted(
        [(0.0, 0.0), (round(pi, 12), 0.0), (0.0, round(pi, 12)), (round(pi, 12), round(pi, 12))]
    )
    assert all(c.halfwidth == 3.0 for c in atlas.charts)
    assert all(c.dim == 2 for c in atlas.charts)
    assert _coverage_margin(atlas, 46) == pytest.approx(0.154952783773045)


@pytest.mark.parametrize("manifold,num_charts,chart_type,dim", [
    ("circle", 2, CircleChart, 1), ("circle", 3, CircleChart, 1), ("torus", 4, TorusChart, 2)])
def test_atlas_charts_are_the_analytic_charts(manifold, num_charts, chart_type, dim):
    # one chart type: each atlas chart evaluates the manifold's base
    # embedding at its chart map, bit for bit
    g = make_grid(dim, 41 if dim == 1 else 17)
    for chart in build_atlas(manifold, num_charts).charts:
        assert type(chart) is chart_type and chart.manifold == manifold
        want = base_embedding(manifold, chart.to_manifold(g.coords))
        assert np.array_equal(chart.evaluate(g), want)
        assert np.array_equal(chart.angles(g), chart.to_manifold(g.coords))


def test_partition_sums_to_one():
    rng = np.random.default_rng(7)
    for manifold, m, d in [("circle", 2, 1), ("circle", 3, 1), ("torus", 4, 2)]:
        atlas = build_atlas(manifold, m)
        pts = rng.uniform(0.0, 2 * np.pi, size=(1000, d))
        psi = atlas.partition(pts)
        assert psi.shape == (m, 1000)
        assert np.max(np.abs(psi.sum(axis=0) - 1.0)) <= 1e-12
        assert np.min(psi) >= 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True))
def test_partition_sum_property(theta):
    atlas = build_atlas("circle", 2)
    psi = atlas.partition(np.array([[theta]]))
    assert abs(psi.sum() - 1.0) <= 1e-12


def test_bump_pinned_regions():
    atlas = build_atlas("circle", 2)
    c = atlas.charts[0].halfwidth
    th = np.linspace(-1.2, 1.2, 101)[:, None] * c
    b = atlas.bump(0, th)
    r = np.abs(th[:, 0]) / c
    assert np.all(b[r <= 0.45] == 1.0)
    assert np.all(b[r >= 0.82] == 0.0)
    mid = (r > 0.45) & (r < 0.82)
    assert np.all((b[mid] > 0.0) & (b[mid] < 1.0))


def test_chart_roundtrip_wraps_angles():
    atlas = build_atlas("circle", 2)
    ch = atlas.charts[1]  # centered at pi
    th = np.array([[0.1], [2 * np.pi - 0.1], [np.pi]])
    X = ch.to_chart(th)
    # both near-zero angles are just under one chart radius from pi
    assert X[0, 0] < 0.0 < X[1, 0]
    assert abs(X[2, 0]) <= 1e-15
    back = ch.to_manifold(X)
    assert np.max(np.abs(np.mod(back - th, 2 * np.pi))) <= 1e-12
    # the chart radius is |to_chart|, on the circle and across the torus seams
    assert np.array_equal(ch.radius(th), np.abs(X[:, 0]))
    tch = build_atlas("torus", 4).charts[3]  # centered at (pi, pi)
    pts = np.array([[0.1, 6.2], [np.pi, np.pi], [3.0, 0.2]])
    assert np.allclose(tch.radius(pts), np.hypot(*tch.to_chart(pts).T), rtol=1e-15, atol=0.0)


# ---------------------------------------------------------- decomposition


def test_decompose_reconstructs_increment():
    rng = np.random.default_rng(3)
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=1.0, samples=4)
    incs = decompose_metric(atlas, fam)
    worst = 0.0
    for _ in range(500):
        th, t = rng.uniform(0, 2 * np.pi), rng.uniform(0, 1)
        p = np.array([[th]])
        total = 0.0
        for chart, evaluator in zip(atlas.charts, incs):
            X = chart.to_chart(p)
            if abs(X[0, 0]) < 1.0:
                total += evaluator(X, t)[0, 0] / chart.halfwidth**2
        expect = fam.evaluator(p, t)[0, 0] - fam.evaluator(p, 0.0)[0, 0]
        worst = max(worst, abs(total - expect))
    assert worst <= 1e-10


def test_decompose_vanishes_at_t0():
    atlas = build_atlas("torus", 4)
    fam = build_manifold_family("circle-breathing", "torus", beta=0.1,
                                horizon=1.0, samples=2)
    X = np.column_stack([np.linspace(-0.9, 0.9, 40), np.linspace(0.9, -0.9, 40)])
    evaluators = decompose_metric(atlas, fam)
    assert len(evaluators) == len(atlas.charts)
    for evaluator in evaluators:
        assert np.all(evaluator(X, 0.0) == 0.0)


def test_decompose_scales_by_halfwidth_squared():
    # at the chart-0 center psi_0 = 1, so the chart value is exactly
    # halfwidth^2 * (g(0, t) - g(0, 0)) = halfwidth^2 * beta * t
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=1.0, samples=2)
    evaluator = decompose_metric(atlas, fam)[0]
    c = atlas.charts[0].halfwidth
    got = evaluator(np.array([[0.0]]), 0.5)[0, 0]
    assert got == pytest.approx(c**2 * 0.05 * 0.5, rel=1e-12)


def test_family_validation():
    with pytest.raises(ValueError, match="unknown family"):
        build_manifold_family("squiggle", "circle")
    with pytest.raises(ValueError, match="positive definiteness"):
        build_manifold_family("uniform-scale", "circle", beta=-2.0, horizon=1.0)
    fam = build_manifold_family("uniform-scale", "torus", beta=0.1, horizon=0.5,
                                samples=4)
    assert fam.t_grid.shape == (5,)
    assert fam.t_grid[0] == 0.0 and fam.t_grid[-1] == 0.5


# ------------------------------------------------------------ mesh/oracle


def test_make_mesh_shapes():
    pts = make_mesh("circle", 64)
    assert pts.shape == (64, 1)
    assert pts[0, 0] == 0.0
    assert np.allclose(np.diff(pts[:, 0]), 2 * np.pi / 64)
    ptsT = make_mesh("torus", 16)
    assert ptsT.shape == (256, 2)


def test_pullback_oracle_on_exact_embeddings():
    fam = build_manifold_family("constant", "circle", horizon=1.0, samples=1)
    r512 = pullback_residual(base_embedding("circle", make_mesh("circle", 512)),
                             make_mesh("circle", 512), fam, 0.0)
    r2048 = pullback_residual(base_embedding("circle", make_mesh("circle", 2048)),
                              make_mesh("circle", 2048), fam, 0.0)
    assert r512 <= 5e-9          # pure fourth-order stencil error
    assert r2048 <= 1e-11
    assert r512 / r2048 > 100.0  # ~4th-order decay under 4x refinement

    famT = build_manifold_family("constant", "torus", horizon=1.0, samples=1)
    ptsT = make_mesh("torus", 48)
    assert pullback_residual(base_embedding("torus", ptsT), ptsT, famT, 0.0) <= 1e-4


def test_pullback_oracle_flags_scaled_embedding():
    # F = 1.1 F0 multiplies the pullback by 1.21: residual 0.21 * max g
    fam = build_manifold_family("constant", "circle", horizon=1.0, samples=1)
    pts = make_mesh("circle", 512)
    r = pullback_residual(1.1 * base_embedding("circle", pts), pts, fam, 0.0)
    assert r == pytest.approx(0.21, abs=1e-6)


def test_pullback_partial_target_needs_atlas():
    fam = build_manifold_family("constant", "circle", horizon=1.0, samples=1)
    pts = make_mesh("circle", 64)
    with pytest.raises(ValueError, match="atlas"):
        pullback_residual(base_embedding("circle", pts), pts, fam, 0.0, upto_stage=1)


# ------------------------------------------------------------ transfers
# glue_solve moves values between tensor grids with atlas._spline: the chart
# lattice (not-a-knot ends) to the mesh, and the periodic mesh (its first
# row appended, periodic ends) to the chart lattice


def _bicubic(x, y):
    return (0.3 - 1.2 * x + 0.7 * y + 0.5 * x * y - 0.9 * x**3
            + 0.4 * x**2 * y**2 + 0.8 * x * y**3 + 0.6 * x**3 * y**3)


def test_chart_to_mesh_transfer_is_exact_on_cubics():
    # not-a-knot splines reproduce cubics, so per-axis passes reproduce any
    # bicubic at off-grid targets
    g1, g2 = make_grid(1, 25), make_grid(2, 25)
    rng = np.random.default_rng(0)
    tx, ty = rng.uniform(-1.0, 1.0, 40), rng.uniform(-1.0, 1.0, 30)
    X, Y = np.meshgrid(g2.axis, g2.axis, indexing="ij")
    lat = np.stack([_bicubic(X, Y), -2.0 * _bicubic(Y, X)], axis=-1)
    got = atlas_module._spline([g2.axis] * 2, lat, [tx, ty], "not-a-knot")
    TX, TY = np.meshgrid(tx, ty, indexing="ij")
    want = np.stack([_bicubic(TX, TY), -2.0 * _bicubic(TY, TX)], axis=-1)
    assert np.max(np.abs(got - want)) <= 1e-12
    got1 = atlas_module._spline([g1.axis], _bicubic(g1.axis, 0.5)[:, None], [tx],
                                "not-a-knot")
    assert np.max(np.abs(got1[:, 0] - _bicubic(tx, 0.5))) <= 1e-12


def _trig(u, v):
    return np.stack([np.cos(u) + 0.5 * np.sin(2.0 * v), np.sin(u + v)], axis=-1)


def _mesh_to_chart_error(mesh, d):
    th = np.linspace(0.0, 2.0 * np.pi, mesh, endpoint=False)
    g = make_grid(d, 25)
    # chart 0 is centered on angle 0, so its lattice crosses the seam
    ch = build_atlas("circle" if d == 1 else "torus", 3 if d == 1 else 4).charts[0]
    chart_th = [np.mod(c + ch.halfwidth * g.axis, 2.0 * np.pi) for c in ch.center]
    # on the circle the second angle is held at 0.3
    mesh_th = [*np.meshgrid(*([th] * d), indexing="ij"), *[0.3] * (2 - d)]
    chart_pts = [*np.meshgrid(*chart_th, indexing="ij"), *[0.3] * (2 - d)]
    periodic = np.pad(_trig(*mesh_th), [(0, 1)] * d + [(0, 0)], mode="wrap")
    got = atlas_module._spline([np.append(th, 2.0 * np.pi)] * d, periodic, chart_th,
                               "periodic")
    return float(np.max(np.abs(got - _trig(*chart_pts))))


@pytest.mark.parametrize("d", [1, 2])
def test_mesh_to_chart_transfer_reproduces_trig_polynomials(d):
    # periodic cubic splines are fourth order: doubling the mesh cuts the
    # error about 16x (measured 1.6e-6 -> 7.8e-8 on the circle, 1.1e-5 ->
    # 8.5e-7 on the torus); neither mesh puts a node on most chart nodes
    coarse, fine = _mesh_to_chart_error(40, d), _mesh_to_chart_error(80, d)
    assert coarse <= 2e-5
    assert fine <= coarse / 10.0


# ------------------------------------------------------------ glue: circle


@pytest.fixture(scope="module")
def breathing_glue():
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=1.0, samples=2)
    sol = glue_solve(fam, atlas, chart_resolution=401,
                     mesh=512, config=CFG)
    return atlas, fam, sol


def test_glue_constant_family_is_identity():
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("constant", "circle", horizon=1.0, samples=2)
    sol = glue_solve(fam, atlas, chart_resolution=201,
                     mesh=128, config=SMOKE_CFG)
    F0 = base_embedding("circle", sol.mesh_points)
    assert sol.horizon_used == 1.0
    for Fs in sol.F_stages:
        for k in range(len(sol.t_grid)):
            assert np.all(Fs[k] == F0)


def test_glue_breathing_contract(breathing_glue):
    atlas, fam, sol = breathing_glue
    # adaptive halving lands on a quarter horizon, keeping all samples
    assert sol.horizon_used == 0.25
    assert len(sol.t_grid) == 3
    F0 = base_embedding("circle", sol.mesh_points)
    assert np.all(sol.F[0] == F0)
    res = solution_residuals(sol)
    assert res[0] <= 5e-9       # t = 0: pure mesh discretization
    assert max(res) <= 5e-6     # measured 2.1e-6 at this resolution
    # every stage/time frame stayed free with room to spare
    for margins in sol.stage_margins:
        for margin, eps in margins:
            assert margin > eps
            assert margin > 1.0
    for traces in sol.stage_traces:
        for tr in traces:
            assert tr.status == "converged"
            assert len(tr.norms) <= 25


def test_glue_stage_invariance_outside_chart(breathing_glue):
    atlas, fam, sol = breathing_glue
    # stage 1 must leave mesh points outside the chart-0 cutoff support
    # bit-identical (the update is masked to exact zero there)
    X0 = atlas.charts[0].to_chart(sol.mesh_points)
    outside = np.max(np.abs(X0), axis=1) >= 0.985
    assert outside.sum() > 0
    for k in range(len(sol.t_grid)):
        assert np.all(sol.F_stages[1][k][outside] == sol.F_stages[0][k][outside])


def test_glue_stage_matches_partial_metric(breathing_glue):
    atlas, fam, sol = breathing_glue
    k = len(sol.t_grid) - 1
    r1 = pullback_residual(sol.F_stages[1][k], sol.mesh_points, fam,
                           sol.t_grid[k], atlas=atlas, upto_stage=1)
    assert r1 <= 2e-6  # measured 5.7e-7
    partial = solution_residuals(sol, stage=1)
    assert partial[0] <= 5e-9
    assert max(partial) <= 2e-6


def test_glue_single_chart_increment_skips_other_stage():
    # an increment supported inside |theta| <= 1 lives where psi_0 == 1,
    # so the chart-1 increment is identically zero and stage 2 must be a
    # bitwise no-op
    def prof(th):
        delta = np.abs(np.mod(th + np.pi, 2 * np.pi) - np.pi)
        return 1.0 - smoothstep((delta - 0.5) / 0.5)

    def ev(points, t):
        pts = np.atleast_2d(points)
        return (1.0 + 0.05 * t * prof(pts[:, 0]))[:, None]

    notch = MetricFamily(ev, horizon=0.5, samples=1, name="notch")
    atlas = build_atlas("circle", 2)
    sol = glue_solve(notch, atlas, chart_resolution=201,
                     mesh=128, config=SMOKE_CFG)
    for k in range(len(sol.t_grid)):
        assert np.all(sol.F_stages[2][k] == sol.F_stages[1][k])
    assert not np.all(sol.F_stages[1][-1] == sol.F_stages[0][-1])
    assert max(solution_residuals(sol)) <= 1e-3


def test_glue_solves_each_stage_from_the_largest_t(monkeypatch):
    # circle-breathing: each chart increment grows linearly in t, so |f|
    # orders the calls
    calls = []
    solve = atlas_module.solve_fixed_point

    def recording(frame, cut, f, config=None):
        v, trace = solve(frame, cut, f, config)
        calls.append((float(np.max(np.abs(f))), trace))
        return v, trace

    monkeypatch.setattr(atlas_module, "solve_fixed_point", recording)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=0.25, samples=2)
    sol = glue_solve(fam, build_atlas("circle", 2),
                     chart_resolution=201, mesh=128, config=SMOKE_CFG)
    assert sol.horizon_used == 0.25 and sol.halvings == []
    assert len(calls) == 6
    for i, traces in enumerate(sol.stage_traces):
        stage_calls = calls[3 * i:3 * i + 3]
        sizes = [size for size, _ in stage_calls]
        assert sizes == sorted(set(sizes), reverse=True) and sizes[-1] == 0.0
        # the results come back in ascending t
        assert all(a is b for a, (_, b) in zip(traces, reversed(stage_calls)))


def test_glue_builds_the_stage_1_frame_once(monkeypatch):
    # stage 1 reads F0 on chart 0 whatever t and the horizon: one frame
    # serves both passes and every sample; stage 2, reached by the second
    # pass only, builds one per sample
    built = []
    build = atlas_module.build_frame

    def recording(source, grid):
        built.append(source)
        return build(source, grid)

    monkeypatch.setattr(atlas_module, "build_frame", recording)
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=0.5, samples=2)
    sol = glue_solve(fam, atlas, chart_resolution=201,
                     mesh=128, config=SMOKE_CFG)
    assert [(h.horizon, h.stage) for h in sol.halvings] == [(0.5, 1)]
    assert sol.horizon_used == 0.25
    assert len(built) == 1 + 3
    stage_1 = base_embedding("circle", atlas.charts[0].to_manifold(make_grid(1, 201).coords))
    assert [np.array_equal(vals, stage_1) for vals in built] == [True] + 3 * [False]


def test_glue_halves_horizon_for_large_families():
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=2.0,
                                horizon=1.0, samples=1)
    sol = glue_solve(fam, atlas, chart_resolution=201,
                     mesh=128, config=SMOKE_CFG)
    assert sol.horizon_used < 1.0
    assert sol.horizon_used == 0.0078125  # 7 exact halvings
    assert len(sol.t_grid) == 2           # sample count preserved
    assert max(solution_residuals(sol)) <= 1e-3


def test_glue_horizon_collapse(monkeypatch):
    monkeypatch.setattr(family_module, "DT_MIN", 0.4)
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=2.0,
                                horizon=1.0, samples=1)
    with pytest.raises(HorizonCollapse) as exc:
        glue_solve(fam, atlas, chart_resolution=201,
                   mesh=128, config=SMOKE_CFG)
    assert exc.value.horizon == 0.25
    # both failed passes are on record, each at its own largest t
    assert [(h.horizon, h.t, h.stage) for h in exc.value.halvings] == [
        (1.0, 1.0, 1), (0.5, 0.5, 1)]


def test_glue_rejects_degenerate_embedding(monkeypatch):
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=1.0, samples=1)

    def squashed(manifold, points, s=()):  # rank-deficient: second component constant
        th = np.asarray(points, dtype=float).reshape(-1)
        return np.column_stack([np.cos(th), np.zeros_like(th)])

    monkeypatch.setattr(embeddings, "base_embedding", squashed)
    monkeypatch.setattr(atlas_module, "base_embedding", squashed)
    with pytest.raises(StageFailure) as exc:
        glue_solve(fam, atlas, chart_resolution=201, mesh=128, config=SMOKE_CFG)
    assert exc.value.stage == 1
    assert "stage 1" in str(exc.value)


def test_glue_csv_export(breathing_glue, tmp_path):
    atlas, fam, sol = breathing_glue
    path = tmp_path / "glued.csv"
    sol.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["stage", "t", "theta", "F1", "F2"]
    nstages = len(sol.F_stages)
    assert len(rows) - 1 == nstages * len(sol.t_grid) * len(sol.mesh_points)
    # spot-check a final-stage row against the array
    last = rows[-1]
    assert int(last[0]) == nstages - 1
    assert float(last[1]) == sol.t_grid[-1]
    assert float(last[-2]) == sol.F[-1][-1, 0]
    assert float(last[-1]) == sol.F[-1][-1, 1]


def _per_row_repr_csv(path, coords, stages, t_values, coord_names):
    # reference: one row at a time, one repr(float) per value
    q = stages[0][0].shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(["stage", "t", *coord_names]
                          + [f"F{j + 1}" for j in range(q)]) + "\n")
        for stage, per_t in enumerate(stages):
            for t, vals in zip(t_values, per_t):
                for p in range(coords.shape[0]):
                    row = [str(stage), repr(float(t))]
                    row += [repr(float(c)) for c in coords[p]]
                    row += [repr(float(c)) for c in vals[p]]
                    fh.write(",".join(row) + "\n")


@pytest.mark.parametrize("d,q", [(1, 2), (2, 6)])
def test_embedding_csv_bytes_match_per_row_repr(tmp_path, d, q):
    rng = np.random.default_rng(d)
    special = np.array([-0.0, 1e-300, 1.5e16, 0.1, 1.0 / 3.0, -2.5e-7, 1e22])
    coords = rng.uniform(-np.pi, np.pi, (9, d))
    coords[:7, 0] = special
    t_values = np.array([0.0, 0.1, 0.25, 0.5])
    base = rng.uniform(-2.0, 2.0, (4, 9, q))
    base[:, :7, -1] = special
    moved = [base[k] + rng.normal(0.0, 1e-3, (9, q)) for k in range(4)]
    names = ("theta", "phi")[:d]
    write_embedding_csv(tmp_path / "shared.csv", coords, [base, moved], t_values, names)
    _per_row_repr_csv(tmp_path / "reference.csv", coords, [base, moved], t_values, names)
    got = (tmp_path / "shared.csv").read_text()
    assert got == (tmp_path / "reference.csv").read_text()
    assert got.startswith("stage,t," + ",".join(names) + ",F1,")
    assert "\n0,0.1,-0.0," in got and ",1e-300," in got and ",1.5e+16," in got


@pytest.mark.parametrize("d,q", [(1, 2), (2, 6)])
def test_embedding_csv_reuses_no_text_across_distinct_bits(tmp_path, d, q):
    # stages that repeat rows across stages and t, as the glue's do: a row
    # repeated bit for bit may reuse its text, but 0.0 and -0.0 compare
    # equal and must not share one, and a NaN row reads back as nan
    rng = np.random.default_rng(10 + d)
    coords = rng.uniform(-np.pi, np.pi, (6, d))
    t_values = np.array([0.0, 0.5, 1.0])
    base = rng.uniform(-2.0, 2.0, (6, q))
    base[0] = 0.0
    base[1] = np.nan
    first = np.stack([base] * 3)
    second = first.copy()
    second[1:, 2:4] += 1e-3  # moved inside the chart at t > 0 only
    second[2, 0] = -0.0  # the zero row again, sign flipped
    third = second.copy()
    third[:, 0, 0] = -0.0  # one component's sign only
    third[0, 5] = second[2, 3]  # another point's row, at another t
    stages = [first, second, third]
    names = ("theta", "phi")[:d]
    write_embedding_csv(tmp_path / "shared.csv", coords, stages, t_values, names)
    _per_row_repr_csv(tmp_path / "reference.csv", coords, stages, t_values, names)
    got = (tmp_path / "shared.csv").read_bytes()
    assert got == (tmp_path / "reference.csv").read_bytes()
    zeros = ",".join(["0.0"] * q)
    text = got.decode()
    assert f",{zeros}\n" in text and ",-0.0," + ",".join(["-0.0"] * (q - 1)) in text
    assert "," + ",".join(["nan"] * q) + "\n" in text


# ------------------------------------------------------------- glue: torus


def test_glue_torus_smoke():
    atlas = build_atlas("torus", 4)
    fam = build_manifold_family("circle-breathing", "torus", beta=0.01,
                                horizon=0.25, samples=1)
    sol = glue_solve(fam, atlas, chart_resolution=25,
                     mesh=48, config=IterationConfig(tol=1e-7))
    assert sol.horizon_used == 0.25
    F0 = base_embedding("torus", sol.mesh_points)
    assert np.all(sol.F[0] == F0)
    res = solution_residuals(sol)
    assert res[0] <= 1e-4      # coarse-mesh stencil baseline
    assert max(res) <= 5e-3    # measured 1.1e-3
    for margins in sol.stage_margins:
        for margin, eps in margins:
            assert margin > eps


def test_glue_torus_refined():
    # twice the smoke scale in chart resolution and mesh.  Final residual
    # measured 1.06e-3 at 25/48, 1.42e-4 here and 3.93e-5 at 97/192 (the
    # table in scripts/convergence_study.py checks the larger scale)
    atlas = build_atlas("torus", 4)
    fam = build_manifold_family("circle-breathing", "torus", beta=0.01,
                                horizon=0.25, samples=1)
    sol = glue_solve(fam, atlas, chart_resolution=49,
                     mesh=96, config=IterationConfig(tol=1e-7))
    assert sol.horizon_used == 0.25
    assert np.all(sol.F[0] == base_embedding("torus", sol.mesh_points))
    res = solution_residuals(sol)
    assert res[0] <= 5e-6      # measured 2.4e-6
    assert max(res) <= 2e-4    # measured 1.43e-4
    for margins in sol.stage_margins:
        for margin, eps in margins:
            assert margin > eps
