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

from isoperturb.atlas import (
    Atlas,
    GlobalSolution,
    ManifoldFamily,
    StageFailure,
    build_atlas,
    build_manifold_family,
    circle_embedding,
    decompose_metric,
    glue_solve,
    make_mesh,
    pullback_residual,
    solution_residuals,
    torus_embedding,
    write_embedding_csv,
)
from isoperturb.family import HorizonCollapse
from isoperturb.fixedpoint import IterationConfig
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
    with pytest.raises(ValueError, match="psi_flat"):
        build_atlas("circle", 2, psi_flat=0.9, psi_supp=0.8)
    # supports too narrow to cover leave a gap between the two arcs
    with pytest.raises(ValueError, match="fail to cover"):
        build_atlas("circle", 2, psi_flat=0.3, psi_supp=0.6)


def test_circle_atlas_geometry():
    atlas = build_atlas("circle", 2)
    assert len(atlas.charts) == 2
    assert atlas.charts[0].center[0] == 0.0
    assert atlas.charts[1].center[0] == pytest.approx(np.pi)
    assert atlas.charts[0].halfwidth == pytest.approx(1.5 * np.pi / 2)
    assert atlas.dim == 1
    assert atlas.coverage_margin == pytest.approx(0.5947867824579516)


def test_torus_atlas_geometry():
    atlas = build_atlas("torus", 4)
    centers = sorted(tuple(np.round(c.center, 12)) for c in atlas.charts)
    pi = np.pi
    assert centers == sorted(
        [(0.0, 0.0), (round(pi, 12), 0.0), (0.0, round(pi, 12)), (round(pi, 12), round(pi, 12))]
    )
    assert all(c.halfwidth == 3.0 for c in atlas.charts)
    assert atlas.dim == 2
    assert atlas.coverage_margin == pytest.approx(0.154952783773045)


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
        for inc in incs:
            X = inc.chart.to_chart(p)
            if abs(X[0, 0]) < 1.0:
                total += inc.evaluator(X, t)[0, 0] / inc.chart.halfwidth**2
        expect = fam.evaluator(p, t)[0, 0] - fam.evaluator(p, 0.0)[0, 0]
        worst = max(worst, abs(total - expect))
    assert worst <= 1e-10


def test_decompose_vanishes_at_t0():
    atlas = build_atlas("torus", 4)
    fam = build_manifold_family("circle-breathing", "torus", beta=0.1,
                                horizon=1.0, samples=2)
    X = np.column_stack([np.linspace(-0.9, 0.9, 40), np.linspace(0.9, -0.9, 40)])
    for inc in decompose_metric(atlas, fam):
        assert np.all(inc.evaluator(X, 0.0) == 0.0)


def test_decompose_scales_by_halfwidth_squared():
    # at the chart-0 center psi_0 = 1, so the chart value is exactly
    # halfwidth^2 * (g(0, t) - g(0, 0)) = halfwidth^2 * beta * t
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=1.0, samples=2)
    inc = decompose_metric(atlas, fam)[0]
    c = atlas.charts[0].halfwidth
    got = inc.evaluator(np.array([[0.0]]), 0.5)[0, 0]
    assert got == pytest.approx(c**2 * 0.05 * 0.5, rel=1e-12)


def test_family_validation():
    with pytest.raises(ValueError, match="unknown family"):
        build_manifold_family("squiggle", "circle")
    with pytest.raises(ValueError, match="positivity"):
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
    r512 = pullback_residual(circle_embedding(make_mesh("circle", 512)),
                             make_mesh("circle", 512), fam, 0.0)
    r2048 = pullback_residual(circle_embedding(make_mesh("circle", 2048)),
                              make_mesh("circle", 2048), fam, 0.0)
    assert r512 <= 5e-9          # pure fourth-order stencil error
    assert r2048 <= 1e-11
    assert r512 / r2048 > 100.0  # ~4th-order decay under 4x refinement

    famT = build_manifold_family("constant", "torus", horizon=1.0, samples=1)
    ptsT = make_mesh("torus", 48)
    assert pullback_residual(torus_embedding(ptsT), ptsT, famT, 0.0) <= 1e-4


def test_pullback_oracle_flags_scaled_embedding():
    # F = 1.1 F0 multiplies the pullback by 1.21: residual 0.21 * max g
    fam = build_manifold_family("constant", "circle", horizon=1.0, samples=1)
    pts = make_mesh("circle", 512)
    r = pullback_residual(1.1 * circle_embedding(pts), pts, fam, 0.0)
    assert r == pytest.approx(0.21, abs=1e-6)


def test_pullback_partial_target_needs_atlas():
    fam = build_manifold_family("constant", "circle", horizon=1.0, samples=1)
    pts = make_mesh("circle", 64)
    with pytest.raises(ValueError, match="atlas"):
        pullback_residual(circle_embedding(pts), pts, fam, 0.0, upto_stage=1)


# ------------------------------------------------------------ glue: circle


@pytest.fixture(scope="module")
def breathing_glue():
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=1.0, samples=2)
    sol = glue_solve(circle_embedding, fam, atlas, chart_resolution=401,
                     mesh=512, config=CFG)
    return atlas, fam, sol


def test_glue_constant_family_is_identity():
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("constant", "circle", horizon=1.0, samples=2)
    sol = glue_solve(circle_embedding, fam, atlas, chart_resolution=201,
                     mesh=128, config=SMOKE_CFG)
    F0 = circle_embedding(sol.mesh_points)
    assert sol.horizon_used == 1.0
    for Fs in sol.F_stages:
        for k in range(len(sol.t_grid)):
            assert np.all(Fs[k] == F0)


def test_glue_breathing_contract(breathing_glue):
    atlas, fam, sol = breathing_glue
    # adaptive halving lands on a quarter horizon, keeping all samples
    assert sol.horizon_used == 0.25
    assert len(sol.t_grid) == 3
    F0 = circle_embedding(sol.mesh_points)
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
        return 1.0 - smoothstep((delta - 0.5) / 0.5, 9)

    def ev(points, t):
        pts = np.atleast_2d(points)
        return (1.0 + 0.05 * t * prof(pts[:, 0]))[:, None]

    notch = ManifoldFamily("circle", ev, horizon=0.5, samples=1, name="notch")
    atlas = build_atlas("circle", 2)
    sol = glue_solve(circle_embedding, notch, atlas, chart_resolution=201,
                     mesh=128, config=SMOKE_CFG)
    for k in range(len(sol.t_grid)):
        assert np.all(sol.F_stages[2][k] == sol.F_stages[1][k])
    assert not np.all(sol.F_stages[1][-1] == sol.F_stages[0][-1])
    assert max(solution_residuals(sol)) <= 1e-3


def test_glue_halves_horizon_for_large_families():
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=2.0,
                                horizon=1.0, samples=1)
    sol = glue_solve(circle_embedding, fam, atlas, chart_resolution=201,
                     mesh=128, config=SMOKE_CFG)
    assert sol.horizon_used < 1.0
    assert sol.horizon_used == 0.0078125  # 7 exact halvings
    assert len(sol.t_grid) == 2           # sample count preserved
    assert max(solution_residuals(sol)) <= 1e-3


def test_glue_horizon_collapse():
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=2.0,
                                horizon=1.0, samples=1)
    with pytest.raises(HorizonCollapse) as exc:
        glue_solve(circle_embedding, fam, atlas, chart_resolution=201,
                   mesh=128, config=SMOKE_CFG, dt_min=0.4)
    assert exc.value.horizon == 0.25


def test_glue_rejects_degenerate_embedding():
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=1.0, samples=1)

    def squashed(points):  # rank-deficient: second component constant
        th = np.asarray(points, dtype=float).reshape(-1)
        return np.column_stack([np.cos(th), np.zeros_like(th)])

    with pytest.raises(StageFailure) as exc:
        glue_solve(squashed, fam, atlas, chart_resolution=201, mesh=128,
                   config=SMOKE_CFG)
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
    assert len(rows) - 1 == nstages * len(sol.t_grid) * sol.mesh
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


# ------------------------------------------------------------- glue: torus


def test_glue_torus_smoke():
    atlas = build_atlas("torus", 4)
    fam = build_manifold_family("circle-breathing", "torus", beta=0.01,
                                horizon=0.25, samples=1)
    sol = glue_solve(torus_embedding, fam, atlas, chart_resolution=25,
                     mesh=48, config=IterationConfig(tol=1e-7))
    assert sol.horizon_used == 0.25
    F0 = torus_embedding(sol.mesh_points)
    assert np.all(sol.F[0] == F0)
    res = solution_residuals(sol)
    assert res[0] <= 1e-4      # coarse-mesh stencil baseline
    assert max(res) <= 5e-3    # measured 1.1e-3
    for margins in sol.stage_margins:
        for margin, eps in margins:
            assert margin > eps


def test_glue_torus_refined():
    # twice the smoke scale in chart resolution and mesh.  Final residual
    # measured 1.06e-3 at 25/48, 1.43e-4 here and 1.50e-4 at 97/192: the
    # decay stops past this scale, so the bound sits just above it
    atlas = build_atlas("torus", 4)
    fam = build_manifold_family("circle-breathing", "torus", beta=0.01,
                                horizon=0.25, samples=1)
    sol = glue_solve(torus_embedding, fam, atlas, chart_resolution=49,
                     mesh=96, config=IterationConfig(tol=1e-7))
    assert sol.horizon_used == 0.25
    assert np.all(sol.F[0] == torus_embedding(sol.mesh_points))
    res = solution_residuals(sol)
    assert res[0] <= 5e-6      # measured 2.4e-6
    assert max(res) <= 2e-4    # measured 1.43e-4
    for margins in sol.stage_margins:
        for margin, eps in margins:
            assert margin > eps
