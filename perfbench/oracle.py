"""Checks of a workload run's outputs that do not trust the run itself.

A solve run is correct when its ``summary.json`` passes every criterion and
the embedding CSV it wrote, read back from disk, meets the scenario's
``residual_tol`` under the package's fourth-order oracles:
``atlas.pullback_residual`` on the periodic mesh for ``solve-global``, and
``verify.isometry_residual`` against the recomputed windowed target for
``solve-family``.  A norm-suite run is correct when its reports meet the
``verify-appendix`` criteria; its residual is the Leibniz consistency error
of the grids' derivative operators on a fixed reference corpus.  Each check
returns ``(residual, problems)``; an empty problem list means the run
passed.
"""

import json
import math
import os
from math import comb

import numpy as np

LEIBNIZ_TOL = 1e-10  # the bound the norm suite itself asserts
REFERENCE_SEED = 20171207
REFERENCE_PAIRS = 32


def read_summary(out_dir):
    """(summary, problems) for the run's summary.json."""
    path = os.path.join(out_dir, "summary.json")
    try:
        with open(path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, [f"summary.json unreadable: {exc}"]
    problems = [
        f"criterion {c.get('criterion')!r} failed: {c.get('value')} vs {c.get('threshold')}"
        for c in summary.get("criteria", [])
        if c.get("pass") is not True
    ]
    if summary.get("status") != "pass":
        problems.append(f"status {summary.get('status')!r}: {summary.get('failure', '')}")
    return summary, problems


def _read_rows(path, fixed, blocks):
    """Rows of an exchange-schema CSV, as (blocks..., columns) floats.

    ``fixed`` are the leading column names; the rest must be F1..Fq.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    q = len(header) - len(fixed)
    if header != list(fixed) + [f"F{j + 1}" for j in range(q)] or q < 1:
        raise ValueError(f"{os.path.basename(path)}: unexpected header {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (math.prod(blocks), len(header)):
        raise ValueError(
            f"{os.path.basename(path)}: {data.shape} values, expected "
            f"{math.prod(blocks)} rows of {len(header)}"
        )
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{os.path.basename(path)}: non-finite values")
    return data.reshape(tuple(blocks) + (len(header),))


def _check_times(block, horizon, samples, name):
    want = np.linspace(0.0, horizon, samples + 1)
    got = block[:, 0, 1]
    if not np.allclose(got, want, rtol=0.0, atol=1e-12):
        raise ValueError(f"{name}: t column {got} does not match horizon {horizon}")


def global_residual(scenario, summary, out_dir):
    """Largest final-stage pullback residual over all samples of global.csv."""
    from isoperturb import atlas

    spec = scenario.family
    horizon = float(summary["results"]["horizon_used"])
    fam = atlas.build_manifold_family(spec.name, scenario.manifold, beta=spec.beta,
                                      horizon=horizon, samples=spec.samples)
    pts = atlas.make_mesh(scenario.manifold, scenario.mesh)
    d = pts.shape[1]
    rows = _read_rows(
        os.path.join(out_dir, "embeddings", "global.csv"),
        ["stage", "t"] + ["theta", "phi"][:d],
        (scenario.charts + 1, spec.samples + 1, pts.shape[0]),
    )
    final = rows[-1]
    if not np.all(final[:, :, 0] == scenario.charts):
        raise ValueError("global.csv: stage column out of order")
    if not np.allclose(final[0, :, 2:2 + d], pts, rtol=0.0, atol=1e-12):
        raise ValueError("global.csv: mesh points do not match the scenario mesh")
    _check_times(final, horizon, spec.samples, "global.csv")
    return max(
        atlas.pullback_residual(final[k, :, 2 + d:], pts, fam, final[k, 0, 1])
        for k in range(spec.samples + 1)
    )


def family_residual(scenario, summary, out_dir):
    """Largest isometry residual over the samples of family.csv."""
    from isoperturb import embeddings, family, grid, verify

    if scenario.chart != "parabola":
        raise ValueError(f"family oracle supports the parabola chart, got {scenario.chart!r}")
    spec = scenario.family
    horizon = float(summary["results"]["horizon_used"])
    g = grid.make_grid(1, scenario.resolution)
    fam = family.build_family(
        spec.name, g, base=embeddings.ParabolaChart(), horizon=horizon,
        samples=spec.samples, beta=spec.beta, bump_radius=spec.bump_radius,
        bump_power=spec.bump_power,
    )
    window = family.chart_window(g, *(scenario.window or ()))
    rows = _read_rows(
        os.path.join(out_dir, "embeddings", "family.csv"),
        ["stage", "t", "x"],
        (2, spec.samples + 1, g.num_nodes),
    )
    _check_times(rows[1], horizon, spec.samples, "family.csv")
    worst = 0.0
    for k in range(spec.samples + 1):
        target = family.windowed_increment(window, fam, rows[1, k, 0, 1])
        F0 = grid.VecField(g, rows[0, k, :, 3:])
        F = grid.VecField(g, rows[1, k, :, 3:])
        worst = max(worst, verify.isometry_residual(F, F0, target)[0])
    return worst


def check_solve(scenario, out_dir):
    """(residual, problems) of a solve-global or solve-family run."""
    summary, problems = read_summary(out_dir)
    if summary is None:
        return math.nan, problems
    recompute = global_residual if scenario.command == "solve-global" else family_residual
    try:
        residual = recompute(scenario, summary, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return math.nan, problems + [f"embedding check failed: {exc}"]
    if not residual <= scenario.residual_tol:
        problems.append(f"recomputed residual {residual:.3e} > residual_tol "
                        f"{scenario.residual_tol:g}")
    return residual, problems


def _affine(g, rng):
    x = g.coords[:, 0]
    if g.dim == 1:
        a, b = rng.uniform(-2.0, 2.0, 2)
        return a + b * x
    y = g.coords[:, 1]
    a, b, c, d = rng.uniform(-2.0, 2.0, 4)
    return a + b * x + c * y + d * x * y


def leibniz_reference(grids):
    """Leibniz consistency error of the grids' derivative operators.

    Max over a fixed corpus of per-axis affine pairs (on which the discrete
    product rule is exact up to roundoff) and multi-indices of order <= 2,
    relative to max(1, |uv|), on the nodes within radius 3/4 in 2-d.  The
    corpus is fixed so that the value moves only when the operators do.
    """
    rng = np.random.default_rng(REFERENCE_SEED)
    worst = 0.0
    for g in grids:
        betas = [(1,), (2,)] if g.dim == 1 else [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        mask = g.radius() <= 0.75 if g.dim == 2 else slice(None)
        for _ in range(REFERENCE_PAIRS):
            u, v = _affine(g, rng), _affine(g, rng)
            scale = max(1.0, float(np.max(np.abs(u * v))))
            for beta in betas:
                rhs = np.zeros(g.num_nodes)
                for gamma in np.ndindex(*(b + 1 for b in beta)):
                    rest = tuple(b - c for b, c in zip(beta, gamma))
                    coeff = math.prod(comb(b, c) for b, c in zip(beta, gamma))
                    rhs += coeff * (g.derivative_matrix(gamma) @ u) * (g.derivative_matrix(rest) @ v)
                err = np.abs(g.derivative_matrix(beta) @ (u * v) - rhs)[mask]
                worst = max(worst, float(np.max(err)) / scale)
    return worst


def check_norm_suite(reports, grids):
    """(residual, problems) of the norm-suite calls' reports."""
    interval, disk, continuity, elliptic = reports
    problems = []
    violations = interval["product_violations"] + disk["product_violations"]
    if violations:
        problems.append(f"{violations} product-inequality violations")
    suite_err = max(interval["leibniz_max_err"], disk["leibniz_max_err"])
    if not suite_err <= LEIBNIZ_TOL:
        problems.append(f"suite Leibniz error {suite_err:.3e} > {LEIBNIZ_TOL:g}")
    witnesses = [v for r in (interval, disk) for k, v in r.items() if "witness" in k]
    witnesses += list(continuity.values())
    witnesses += [elliptic["schauder_ratio"], elliptic["linearity_defect"]]
    if not all(np.isfinite(w) for w in witnesses):
        problems.append("a witness constant is not finite")
    residual = leibniz_reference(grids)
    if not residual <= LEIBNIZ_TOL:
        problems.append(f"reference Leibniz error {residual:.3e} > {LEIBNIZ_TOL:g}")
    return residual, problems
