"""Acceptance gate: the nine headline checks, one [PASS]/[FAIL] line each.

Expensive solves are shared through module-scoped fixtures; each criterion
prints a single summary line (visible with pytest -s) and asserts its stated
tolerances, including wall-clock budgets.
"""

import time

import numpy as np
import pytest

from isoperturb.atlas import build_atlas, glue_solve, solution_residuals
from isoperturb.embeddings import CircleChart, ParabolaChart, base_embedding
from isoperturb.family import build_family, build_manifold_family, chart_window, solve_family, \
    stability_gap, time_regularity_probe
from isoperturb.fixedpoint import IterationConfig, bump_perturbation, local_perturb
from isoperturb.frame import NotFreeError, build_frame
from isoperturb.grid import check_inequalities, make_grid, monitor_recurrence
from isoperturb.operators import Cutoff
from isoperturb.poisson import solve_dirichlet


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    return ok


# ------------------------------------------------------------- shared solves


@pytest.fixture(scope="module")
def local_solve():
    g = make_grid(1, 401)
    f = bump_perturbation(g, 0.01, 0.5)
    t0 = time.time()
    rec, rep = local_perturb(build_frame(ParabolaChart(), g), f, config=IterationConfig(tol=1e-9))
    return {"rec": rec, "rep": rep, "elapsed": time.time() - t0, "grid": g}


@pytest.fixture(scope="module")
def local_solve_doubled():
    g = make_grid(1, 801)
    f = bump_perturbation(g, 0.01, 0.5)
    _, rep = local_perturb(build_frame(ParabolaChart(), g), f, config=IterationConfig(tol=1e-9))
    return rep


@pytest.fixture(scope="module")
def stability_pair():
    g = make_grid(1, 401)
    frame = build_frame(ParabolaChart(), g)
    f1 = bump_perturbation(g, 0.010, 0.5)
    f2 = bump_perturbation(g, 0.011, 0.5)
    cut, cfg = Cutoff(g), IterationConfig(tol=1e-10)
    rec, _ = local_perturb(frame, f1, config=cfg, cutoff=cut)
    rec2, gap = stability_gap(rec, cut, f2, cfg)
    return {**gap, "traces": [rec.trace, rec2.trace]}


@pytest.fixture(scope="module")
def family_solution():
    g = make_grid(1, 801)
    chart = ParabolaChart()
    fam = build_family("bump-breathing", g, base=chart, horizon=0.5,
                       samples=8, beta=0.01, bump_radius=0.4)
    t0 = time.time()
    sol = solve_family(build_frame(chart, g), fam, window=chart_window(g, 0.5, 0.75),
                       cutoff=Cutoff(g, 0.5, 0.9),
                       config=IterationConfig(tol=1e-9))
    return {"sol": sol, "elapsed": time.time() - t0, "grid": g}


@pytest.fixture(scope="module")
def glue_solution():
    atlas = build_atlas("circle", 2)
    fam = build_manifold_family("circle-breathing", "circle", beta=0.05,
                                horizon=1.0, samples=8)
    t0 = time.time()
    sol = glue_solve(fam, atlas, chart_resolution=801,
                     mesh=2048, config=IterationConfig(tol=1e-9))
    return {"sol": sol, "atlas": atlas, "elapsed": time.time() - t0}


# ---------------------------------------------------------------- criteria


def test_criterion_1_poisson_order():
    t0 = time.time()
    errs = []
    for N in (51, 101, 201):
        g = make_grid(1, N)
        x = g.coords[:, 0]
        sol = solve_dirichlet(g, -np.pi**2 * np.sin(np.pi * x))
        errs.append(float(np.max(np.abs(sol.u - np.sin(np.pi * x)))))
    orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]

    errs2 = []
    for N in (33, 65):
        g = make_grid(2, N)
        x, y = g.coords[:, 0], g.coords[:, 1]
        s, c = np.sin(x + 2.0 * y), np.cos(x + 2.0 * y)
        phi = 1.0 - x * x - y * y
        f = -4.0 * s - (4.0 * x + 8.0 * y) * c - 5.0 * phi * s
        sol = solve_dirichlet(g, f)
        errs2.append(float(np.max(np.abs(sol.u - phi * s))))
    orders.append(float(np.log2(errs2[0] / errs2[1])))
    elapsed = time.time() - t0

    ok = all(1.8 <= o <= 2.2 for o in orders) and elapsed < 10.0
    assert _line(1, ok, f"solver orders {[f'{o:.3f}' for o in orders]} "
                        f"in 2.0+-0.2, {elapsed:.1f}s < 10s")


def test_criterion_2_inequality_suite():
    t0 = time.time()
    rep = check_inequalities(make_grid(1, 201), samples=100)
    elapsed = time.time() - t0
    witnesses = [v for k, v in rep.items() if "witness" in k]
    ok = (rep["product_violations"] == 0
          and rep["product_max_ratio"] <= 1.0 + 1e-12
          and rep["leibniz_max_err"] <= 1e-10
          and all(np.isfinite(w) for w in witnesses)
          and elapsed < 30.0)
    assert _line(2, ok, f"0/{rep['samples']} product violations at 1e-12 rel "
                        f"(max ratio {rep['product_max_ratio']:.3f}), leibniz "
                        f"{rep['leibniz_max_err']:.2e} <= 1e-10, "
                        f"{len(witnesses)} finite witnesses, "
                        f"{elapsed:.1f}s < 30s")


def test_criterion_3_frame_identity():
    g = make_grid(1, 401)
    defects = []
    for chart in (ParabolaChart(), CircleChart()):
        defects.append(build_frame(chart, g).identity_defect)
    x = g.coords[:, 0]
    flat = np.stack([x, np.zeros_like(x)], axis=1)
    with pytest.raises(NotFreeError) as exc:
        build_frame(flat, g)
    ok = max(defects) <= 1e-10 and exc.value.margin == 0.0
    assert _line(3, ok, f"A.Theta=I defect {max(defects):.2e} <= 1e-10 on both "
                        f"charts; (x,0) rejected with margin "
                        f"{exc.value.margin}")


def test_criterion_4_contraction(local_solve):
    tr = local_solve["rec"].trace
    elapsed = local_solve["elapsed"]
    # tr.norms are certified upper bounds on the iterates' norms, so the
    # bound held on them holds on the exact norms too
    bound_ok = all(n <= tr.bound * (1.0 + 1e-6) for n in tr.norms)
    ratio = max(tr.ratios[-2:])  # the larger of the last two increment ratios
    ok = (ratio <= 0.6 and bound_ok
          and tr.iterations <= 40 and elapsed < 20.0)
    assert _line(4, ok, f"ratio {ratio:.3f} <= 0.6, bound held "
                        f"for {len(tr.norms)} iterates, {tr.iterations} <= 40 "
                        f"iters, {elapsed:.1f}s < 20s")


def test_criterion_5_local_isometry(local_solve, local_solve_doubled):
    rep = local_solve["rep"]
    factor = rep["residual_sup"] / local_solve_doubled["residual_sup"]
    ok = (rep["residual_sup"] <= 1e-6
          and 2.5 <= factor <= 6.5
          and rep["support_leak"] == 0.0)
    assert _line(5, ok, f"oracle residual {rep['residual_sup']:.2e} <= 1e-6, "
                        f"x{factor:.2f} decay under doubling, support leak "
                        f"{rep['support_leak']}")


def test_criterion_6_stability(stability_pair):
    ratio = stability_pair["ratio"]
    ok = ratio <= 1.1
    assert _line(6, ok, f"|v1-v2| / |E(0, f1-f2)| = {ratio:.4f} <= 1.1")


def test_criterion_7_time_family(family_solution):
    sol = family_solution["sol"]
    elapsed = family_solution["elapsed"]
    u0 = float(np.max(np.abs(sol.records[0].u)))
    worst = float(max(rec.residual() for rec in sol.records))
    # certified upper bounds on the iterates' norms: they imply the exact check
    bound_ok = all(n <= tr.bound * (1.0 + 1e-6)
                   for tr in sol.traces[1:] for n in tr.norms)
    us = np.stack([rec.u for rec in sol.records], axis=1)
    probe = time_regularity_probe(sol.t_grid, us, family_solution["grid"], r_max=2)
    ratios = [row["ratio"] for row in probe["orders"].values()]
    ok = (u0 == 0.0 and worst <= 1e-6 and bound_ok
          and all(r <= 2.0 for r in ratios) and elapsed < 120.0)
    assert _line(7, ok, f"u(.,0)=0 exact, worst residual {worst:.2e} <= 1e-6, "
                        f"per-sample bounds held, dd ratios "
                        f"{[f'{r:.2f}' for r in ratios]} <= 2, "
                        f"{elapsed:.1f}s < 2min")


def test_criterion_8_global_gluing(glue_solution):
    sol = glue_solution["sol"]
    atlas = glue_solution["atlas"]
    elapsed = glue_solution["elapsed"]
    theta = np.linspace(0.0, 2.0 * np.pi, 1001).reshape(-1, 1)
    pou_defect = float(np.max(np.abs(atlas.partition(theta).sum(axis=0) - 1.0)))
    finals = solution_residuals(sol)
    worst = float(max(finals))
    base_exact = bool(np.all(sol.F[0] == base_embedding("circle", sol.mesh_points)))
    free_ok = all(rec.frame.freeness_margin > rec.frame.eps_free
                  for recs in sol.records for rec in recs)
    ok = (pou_defect <= 1e-10 and worst <= 1e-5 and base_exact
          and free_ok and elapsed < 300.0)
    assert _line(8, ok, f"partition defect {pou_defect:.2e} <= 1e-10, worst "
                        f"residual {worst:.2e} <= 1e-5 over {len(finals)} "
                        f"samples at mesh 2048, F(.,0)=F0 exact, margins > "
                        f"threshold at all stages, {elapsed:.0f}s < 5min")


def test_criterion_9_recurrence_monitor(local_solve, stability_pair,
                                        family_solution, glue_solution):
    traces = [local_solve["rec"].trace]
    traces += stability_pair["traces"]
    traces += list(family_solution["sol"].traces)
    for stage in glue_solution["sol"].stage_traces:
        traces += list(stage)
    converged = [tr for tr in traces if tr.status == "converged"]
    # the envelope is checked on certified upper bounds on |v_k|, which
    # imply it for the exact norms
    ok = all(monitor_recurrence(0.0, tr.bound / 2.0, tr.norms)
             for tr in converged)
    assert _line(9, ok, f"all {len(converged)} converging traces obey the "
                        f"a0=0, C=bound/2 recurrence envelope")
