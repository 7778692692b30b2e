"""Single-chart demo: perturb a parabola embedding to absorb a bump in the metric.

Builds the frame for F0(x) = (x, x^2), solves the fixed-point problem for a
compactly supported metric increment, and prints the convergence trace plus
the independent finite-difference verification of the result.  A second
load, 10% larger, checks stability: the two corrections differ by at most
1.1 times the frame image of the load difference.

Usage: python3 scripts/run_local_demo.py [--resolution N] [--amplitude A]
"""

import argparse
import time

import numpy as np

from isoperturb.embeddings import ParabolaChart
from isoperturb.family import stability_gap
from isoperturb.fixedpoint import IterationConfig, bump_perturbation, local_perturb
from isoperturb.frame import build_frame
from isoperturb.grid import make_grid
from isoperturb.operators import Cutoff


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--resolution", type=int, default=401)
    ap.add_argument("--amplitude", type=float, default=0.01)
    ap.add_argument("--bump-radius", type=float, default=0.5)
    args = ap.parse_args()

    g = make_grid(1, args.resolution)
    chart = ParabolaChart()

    print("=" * 64)
    print("local isometric perturbation on a parabola chart")
    print("=" * 64)
    print(f"grid: dim=1 N={args.resolution}, chart x -> (x, x^2)")

    frame = build_frame(chart, g)
    print(f"freeness margin      : {frame.freeness_margin:.6e} "
          f"(threshold {frame.eps_free:.3e})")
    print(f"frame identity defect: {frame.identity_defect:.3e}")

    f = bump_perturbation(g, args.amplitude, args.bump_radius)
    t0 = time.time()
    u, rep = local_perturb(frame, f, config=IterationConfig(tol=1e-9))
    dt = time.time() - t0
    tr = rep["trace"]

    print(f"\nfixed-point iteration ({tr.iterations} steps, {dt:.2f}s, "
          f"status={tr.status})")
    print(f"{'it':>3}  {'|v|_2,a':>12}  {'increment':>12}  {'ratio':>8}")
    # the rows of traces/iteration.csv: the ratio is the step's increment
    # over the previous step's
    for i, (n, inc, r) in enumerate(zip(tr.norms, tr.increments, [np.nan] + tr.ratios)):
        print(f"{i:>3}  {n:>12.5e}  {inc:>12.5e}  {r:>8.4f}")

    print(f"\nnorm bound           : {tr.bound:.6e} "
          f"(max iterate {max(tr.norms):.6e})")
    print(f"oracle residual (sup): {rep['residual_sup']:.6e}")
    print(f"support leak         : {rep['support_leak']:.6e}")
    print(f"|u|_{{2,alpha}}        : {rep['u_norm']:.6e}")

    f2 = bump_perturbation(g, 1.1 * args.amplitude, args.bump_radius)
    gap = stability_gap(frame, Cutoff(g), f, f2, IterationConfig(tol=1e-10))
    print(f"stability ratio      : {gap['ratio']:.4f} "
          f"(|v1-v2| {gap['gap']:.3e} / |E(0, f1-f2)| {gap['frame_norm']:.3e})")

    ok_res = rep["residual_sup"] <= 1e-6
    ok_sup = rep["support_leak"] <= 0.0
    ok_bound = rep["monitor_ok"]
    ok_stab = gap["ratio"] <= 1.1
    print()
    print(f"[{'PASS' if ok_res else 'FAIL'}] pullback matches target to 1e-6")
    print(f"[{'PASS' if ok_sup else 'FAIL'}] u vanishes outside the cutoff support")
    print(f"[{'PASS' if ok_bound else 'FAIL'}] every iterate stayed inside the bound")
    print(f"[{'PASS' if ok_stab else 'FAIL'}] a 10% larger load moves the correction "
          f"by at most 1.1x its frame image")
    return 0 if (ok_res and ok_sup and ok_bound and ok_stab) else 1


if __name__ == "__main__":
    raise SystemExit(main())
