"""Convergence studies: Dirichlet solver order and residual decay of the solve.

Part 1 measures the observed order of the Poisson solver against manufactured
solutions on the interval and the disk (expected: second order).  Part 2
solves the same local perturbation problem at doubling resolutions and
reports the decay factor of the independent isometry residual.  Part 3 glues
the four-chart torus at doubling chart resolution and mesh and reports the
final pullback residual of each stage.

Usage: python3 scripts/convergence_study.py
"""

import time

import numpy as np

from isoperturb.atlas import build_atlas, glue_solve, solution_residuals
from isoperturb.embeddings import ParabolaChart
from isoperturb.family import build_manifold_family
from isoperturb.fixedpoint import IterationConfig, bump_perturbation, local_perturb
from isoperturb.frame import build_frame
from isoperturb.grid import make_grid
from isoperturb.poisson import solve_dirichlet


def poisson_orders():
    print("Poisson solver, manufactured solutions")
    print("-" * 56)
    print("interval: u = sin(pi x), f = -pi^2 sin(pi x)")
    errs = []
    for N in (51, 101, 201):
        g = make_grid(1, N)
        x = g.coords[:, 0]
        sol = solve_dirichlet(g, -np.pi**2 * np.sin(np.pi * x))
        err = float(np.max(np.abs(sol.u - np.sin(np.pi * x))))
        errs.append(err)
        print(f"  N={N:>4}  sup error {err:.5e}")
    orders = [np.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
    print("  observed orders: " + ", ".join(f"{o:.3f}" for o in orders))

    print("disk: u = sin(pi x) cos(pi y) (1 - r^2)")
    errs2 = []
    for N in (33, 65):
        g = make_grid(2, N)
        x, y = g.coords[:, 0], g.coords[:, 1]
        r2 = x * x + y * y
        u_ex = np.sin(np.pi * x) * np.cos(np.pi * y) * (1.0 - r2)
        sol = solve_dirichlet(g, _disk_laplacian(x, y))
        err = float(np.max(np.abs(sol.u - u_ex)))
        errs2.append(err)
        print(f"  N={N:>4}  sup error {err:.5e}")
    order2 = float(np.log2(errs2[0] / errs2[1]))
    print(f"  observed order: {order2:.3f}")
    return orders + [order2]


def _disk_laplacian(x, y):
    # closed-form Laplacian of sin(pi x) cos(pi y) (1 - x^2 - y^2)
    s, c = np.sin(np.pi * x), np.cos(np.pi * x)
    cy, sy = np.cos(np.pi * y), np.sin(np.pi * y)
    w = 1.0 - x * x - y * y
    lap = (-2.0 * np.pi**2 * s * cy * w
           - 4.0 * np.pi * c * cy * x
           + 4.0 * np.pi * s * sy * y
           - 4.0 * s * cy)
    return lap


def residual_decay():
    print("\nlocal solve, residual vs resolution (amplitude 0.01)")
    print("-" * 56)
    rows = []
    for N in (201, 401, 801):
        g = make_grid(1, N)
        f = bump_perturbation(g, 0.01, 0.5)
        t0 = time.time()
        frame = build_frame(ParabolaChart(), g)
        u, rep = local_perturb(frame, f, config=IterationConfig(tol=1e-11))
        dt = time.time() - t0
        rows.append((N, rep["residual_sup"], rep["iterations"], dt))
        print(f"  N={N:>4}  residual {rep['residual_sup']:.5e}  "
              f"iters {rep['iterations']:>2}  {dt:.2f}s")
    factors = [r0 / r1 for (_, r0, _, _), (_, r1, _, _) in zip(rows, rows[1:])]
    print("  decay factors under doubling: " +
          ", ".join(f"{f:.2f}" for f in factors))
    return factors


def torus_glue_scale():
    print("\ntorus glue, residual vs chart x mesh (circle-breathing, beta 0.01, t 0.25)")
    print("-" * 56)
    atlas = build_atlas("torus", 4)
    fam = build_manifold_family("circle-breathing", "torus", beta=0.01,
                                horizon=0.25, samples=1)
    finals = []
    for N, mesh in ((25, 48), (49, 96), (97, 192)):
        t0 = time.time()
        sol = glue_solve(fam, atlas, chart_resolution=N,
                         mesh=mesh, config=IterationConfig(tol=1e-7))
        dt = time.time() - t0
        # residual at the last sample, after each stage
        stages = [solution_residuals(sol, s)[-1] for s in range(1, len(sol.F_stages))]
        finals.append(stages[-1])
        print(f"  chart {N:>3} / mesh {mesh:>3}  final {stages[-1]:.4e}  stages "
              + ", ".join(f"{r:.2e}" for r in stages) + f"  {dt:.2f}s")
    factors = [r0 / r1 for r0, r1 in zip(finals, finals[1:])]
    print("  decay factors under refinement: " +
          ", ".join(f"{f:.2f}" for f in factors))
    return finals, factors


def main():
    print("=" * 64)
    print("convergence studies")
    print("=" * 64)
    orders = poisson_orders()
    factors = residual_decay()
    torus_finals, torus_factors = torus_glue_scale()

    ok_orders = all(1.8 <= o <= 2.2 for o in orders)
    ok_decay = all(f >= 3.0 for f in factors)
    ok_torus = torus_finals[-1] <= 5e-5 and all(f >= 3.0 for f in torus_factors)
    print()
    print(f"[{'PASS' if ok_orders else 'FAIL'}] Dirichlet solver is second order "
          "on interval and disk")
    print(f"[{'PASS' if ok_decay else 'FAIL'}] isometry residual shrinks ~4x per "
          "resolution doubling")
    print(f"[{'PASS' if ok_torus else 'FAIL'}] torus glue residual <= 5e-5 at chart 97 / "
          "mesh 192, and shrinks >= 3x per refinement")
    return 0 if (ok_orders and ok_decay and ok_torus) else 1


if __name__ == "__main__":
    raise SystemExit(main())
