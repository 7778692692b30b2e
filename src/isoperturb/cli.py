"""Configuration-driven command line: scenario runs, verification, reports.

Subcommands: check-free, solve-local, solve-family, solve-global,
verify-appendix, report.  Every run writes a schema-versioned
summary.json plus CSV traces/embeddings into the output directory; exit
status is 0 when all asserted tolerances hold, 1 on a named tolerance
failure, 2 on a config parse/validation error (in which case no
artifacts are written).  Outputs carry no timestamps, so identical
config + seed reproduces byte-identical artifacts.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .atlas import (
    ManifoldFamily,
    StageFailure,
    build_atlas,
    build_manifold_family,
    glue_solve,
    solution_residuals,
    write_embedding_csv,
)
from .config import (
    ScenarioError,
    Scenario,
    check_resolution,
    load_family_table,
    load_scenario,
    scenario_hash,
)
from .embeddings import CircleChart, ParabolaChart, TorusChart, circle_embedding, torus_embedding
from .family import (
    HorizonCollapse,
    build_family,
    chart_window,
    solve_family,
    time_regularity_probe,
)
from .fixedpoint import IterationConfig, bump_perturbation, local_perturb
from .frame import NotFreeError, build_frame, freeness_threshold
from .grid import check_inequalities, make_grid
from .operators import Cutoff, continuity_witnesses
from .poisson import elliptic_monitors


SCHEMA_VERSION = 1


def _chart_for(scenario: Scenario):
    if scenario.chart == "parabola":
        return ParabolaChart()
    if scenario.chart == "circle":
        hw = scenario.halfwidth if scenario.halfwidth is not None else 3.0 * np.pi / 4.0
        return CircleChart(0.0, hw)
    hw = scenario.halfwidth if scenario.halfwidth is not None else 3.0
    return TorusChart((0.0, 0.0), hw)


def _grid_for(scenario: Scenario):
    dim = 2 if scenario.chart == "torus" else 1
    return make_grid(dim, scenario.resolution)


def _iteration_config(scenario: Scenario) -> IterationConfig:
    return IterationConfig(tol=scenario.iteration_tol, alpha=scenario.alpha)


def _table_family(scenario: Scenario) -> ManifoldFamily:
    from scipy.interpolate import CubicSpline

    t, comps = load_family_table(scenario.family.table)
    want = 1 if scenario.manifold == "circle" else 3
    if comps.shape[1] != want:
        raise ScenarioError(
            f"family table has {comps.shape[1]} component columns; the "
            f"{scenario.manifold} needs {want}",
            field="family.table",
        )
    if scenario.family.horizon > t[-1] + 1e-12:
        raise ScenarioError(
            f"family table ends at t={t[-1]} but the horizon is "
            f"{scenario.family.horizon}",
            field="family.horizon",
        )
    spline = CubicSpline(t, comps, axis=0)

    def evaluator(points, tt):
        pts = np.atleast_2d(points)
        row = spline(float(tt))
        return np.broadcast_to(row, (pts.shape[0], row.size)).copy()

    return ManifoldFamily(scenario.manifold, evaluator, scenario.family.horizon,
                          scenario.family.samples, "table")


# ------------------------------------------------------------------ artifacts


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace_csv(path, trace):
    cols = ("norm", "increment", "ratio", "poisson_residual")
    series = (trace.norms, trace.increments, trace.ratios, trace.poisson_residuals)
    n = max((len(s) for s in series), default=0)
    with open(path, "w") as fh:
        fh.write("iteration," + ",".join(cols) + "\n")
        for i in range(n):
            row = [str(i)]
            for s in series:
                row.append(repr(float(s[i])) if i < len(s) else "")
            fh.write(",".join(row) + "\n")


class RunReport:
    """Accumulates criteria and results, then writes summary.json."""

    def __init__(self, scenario, out_dir, quiet):
        self.scenario = scenario
        self.out_dir = out_dir
        self.quiet = quiet
        self.criteria = []
        self.results = {}

    def check(self, name, value, threshold, ok=None, mode="<="):
        if ok is None:
            ok = value <= threshold if mode == "<=" else value > threshold
        self.criteria.append({
            "criterion": name,
            "value": value,
            "threshold": threshold,
            "pass": bool(ok),
        })
        if not self.quiet:
            tag = "PASS" if ok else "FAIL"
            print(f"[{tag}] {name}: {value:.6g} (threshold {mode} {threshold:.6g})")
        return ok

    def record(self, **kv):
        self.results.update(kv)

    def finish(self, failure=None):
        ok = failure is None and all(c["pass"] for c in self.criteria)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario.name,
            "command": self.scenario.command,
            "config_hash": scenario_hash(self.scenario),
            "seed": self.scenario.seed,
            "parameters": asdict(self.scenario),
            "results": self.results,
            "criteria": self.criteria,
            "status": "pass" if ok else "fail",
        }
        if failure is not None:
            payload["failure"] = failure
        _write_json(os.path.join(self.out_dir, "summary.json"), payload)
        if not self.quiet:
            print(f"summary: {os.path.join(self.out_dir, 'summary.json')} "
                  f"({payload['status']})")
        if failure is not None and not self.quiet:
            print(f"[FAIL] {failure}")
        return 0 if ok else 1


# ----------------------------------------------------------------- commands


def _run_check_free(scenario, report):
    g = _grid_for(scenario)
    chart = _chart_for(scenario)
    try:
        frame = build_frame(chart, g)
    except NotFreeError as exc:
        report.record(margin=exc.margin, node=exc.node)
        report.check("freeness-margin", exc.margin, 0.0, ok=False, mode=">")
        return report.finish()
    eps = freeness_threshold(frame)
    report.record(margin=frame.freeness_margin, eps_free=eps, q=frame.q,
                  identity_defect=frame.identity_defect,
                  excluded_nodes=frame.excluded_nodes, nodes=g.num_nodes)
    report.check("freeness-margin", frame.freeness_margin, eps, mode=">")
    report.check("frame-identity-defect", frame.identity_defect, 1e-10)
    return report.finish()


def _run_solve_local(scenario, report):
    g = _grid_for(scenario)
    chart = _chart_for(scenario)
    cut = Cutoff(g, *scenario.cutoff) if scenario.cutoff else Cutoff(g)
    f = bump_perturbation(g, scenario.amplitude, scenario.bump_radius)
    cfg = _iteration_config(scenario)
    u, rep = local_perturb(chart, f, config=cfg, cutoff=cut)
    trace = rep["trace"]
    _write_trace_csv(os.path.join(report.out_dir, "traces", "iteration.csv"), trace)
    frame = build_frame(chart, g)
    F = frame.F0.values + u.values
    write_embedding_csv(
        os.path.join(report.out_dir, "embeddings", "local.csv"),
        g.coords, [[frame.F0.values], [F]], [0.0],
        ("x", "y")[: g.dim],
    )
    report.record(residual_sup=rep["residual_sup"], u_norm=rep["u_norm"],
                  iterations=rep["iterations"], support_leak=rep["support_leak"],
                  bound_ratio=rep["bound_ratio"], frame_bound=rep["frame_bound"])
    report.check("isometry-residual", rep["residual_sup"], scenario.residual_tol)
    report.check("support-leak", rep["support_leak"], 0.0)
    report.check("iterate-bound-monitor", 0.0 if rep["monitor_ok"] else 1.0, 0.0,
                 ok=rep["monitor_ok"])
    return report.finish()


def _run_solve_family(scenario, report):
    g = _grid_for(scenario)
    chart = _chart_for(scenario)
    fam = build_family(
        scenario.family.name, g, base=chart, horizon=scenario.family.horizon,
        samples=scenario.family.samples, beta=scenario.family.beta,
        bump_radius=scenario.family.bump_radius,
        bump_power=scenario.family.bump_power,
    )
    cut = Cutoff(g, *scenario.cutoff) if scenario.cutoff else None
    window = chart_window(g, *(scenario.window or ()))
    cfg = _iteration_config(scenario)
    try:
        sol = solve_family(chart, fam, window=window, cutoff=cut, config=cfg)
    except HorizonCollapse as exc:
        report.record(horizon=exc.horizon)
        return report.finish(failure=f"horizon collapsed at {exc.horizon}")
    r_max = min(2, (len(sol.t_grid) - 1) // 2)
    probe = time_regularity_probe(sol, r_max=r_max) if r_max >= 1 else {"orders": {}}
    ratios = [probe["orders"][r]["ratio"] for r in probe["orders"]]
    for k, tr in enumerate(sol.traces):
        _write_trace_csv(
            os.path.join(report.out_dir, "traces", f"sample_{k:02d}.csv"), tr
        )
    frame = sol.frame
    stages = [[frame.F0.values for _ in sol.t_grid],
              [frame.F0.values + u.values for u in sol.us]]
    write_embedding_csv(
        os.path.join(report.out_dir, "embeddings", "family.csv"),
        g.coords, stages, list(sol.t_grid), ("x", "y")[: g.dim],
    )
    report.record(
        horizon_used=sol.horizon_used,
        residuals=[float(r) for r in sol.residuals],
        u0_max=float(np.max(np.abs(sol.us[0].values))),
        probe=probe,
    )
    report.check("initial-sample-is-zero", float(np.max(np.abs(sol.us[0].values))), 0.0)
    report.check("max-sample-residual", float(max(sol.residuals)), scenario.residual_tol)
    if ratios:
        report.check("probe-ratio", float(max(ratios)), 2.0)
    return report.finish()


def _run_solve_global(scenario, report):
    atlas = build_atlas(scenario.manifold, scenario.charts)
    if scenario.family.name == "table":
        fam = _table_family(scenario)
    else:
        fam = build_manifold_family(
            scenario.family.name, scenario.manifold, beta=scenario.family.beta,
            horizon=scenario.family.horizon, samples=scenario.family.samples,
        )
    F0 = circle_embedding if scenario.manifold == "circle" else torus_embedding
    cfg = _iteration_config(scenario)
    radii = tuple(scenario.cutoff) if scenario.cutoff else (0.85, 0.985)
    try:
        sol = glue_solve(F0, fam, atlas, chart_resolution=scenario.resolution,
                         mesh=scenario.mesh, config=cfg, cutoff_radii=radii)
    except HorizonCollapse as exc:
        report.record(horizon=exc.horizon)
        return report.finish(failure=f"glue horizon collapsed at {exc.horizon}")
    except StageFailure as exc:
        report.record(stage=exc.stage)
        return report.finish(failure=str(exc))
    for i, traces in enumerate(sol.stage_traces, start=1):
        for k, tr in enumerate(traces):
            _write_trace_csv(
                os.path.join(report.out_dir, "traces",
                             f"stage{i}_sample_{k:02d}.csv"),
                tr,
            )
    # per-stage residual table against the matching partial metric
    res_path = os.path.join(report.out_dir, "traces", "stage_residuals.csv")
    stage_rows = []
    with open(res_path, "w") as fh:
        fh.write("stage,t,residual\n")
        for stage in range(1, len(sol.F_stages)):
            rs = solution_residuals(sol, stage=stage)
            stage_rows.append([float(r) for r in rs])
            for t, r in zip(sol.t_grid, rs):
                fh.write(f"{stage},{repr(float(t))},{repr(float(r))}\n")
    sol.write_csv(os.path.join(report.out_dir, "embeddings", "global.csv"))
    final = stage_rows[-1]
    margins = [(m, e) for ms in sol.stage_margins for (m, e) in ms]
    worst_margin = min(m for m, _ in margins)
    worst_eps = max(e for _, e in margins)
    F0_mesh = F0(sol.mesh_points)
    t0_exact = bool(np.all(sol.F[0] == F0_mesh))
    report.record(
        horizon_used=sol.horizon_used,
        final_residuals=final,
        stage_residuals=stage_rows,
        min_freeness_margin=worst_margin,
        max_eps_free=worst_eps,
        initial_sample_exact=t0_exact,
    )
    report.check("max-final-residual", float(max(final)), scenario.residual_tol)
    report.check("initial-sample-exact", 0.0 if t0_exact else 1.0, 0.0, ok=t0_exact)
    report.check("freeness-margin", worst_margin, worst_eps, mode=">")
    return report.finish()


def _run_verify_appendix(scenario, report):
    g1 = make_grid(1, scenario.resolution)
    g2 = make_grid(2, 33)
    rep1 = check_inequalities(g1, samples=scenario.appendix_samples,
                              alpha=scenario.alpha, seed=scenario.seed)
    rep2 = check_inequalities(g2, samples=max(10, scenario.appendix_samples // 5),
                              alpha=scenario.alpha, seed=scenario.seed)
    cut = Cutoff(g1)
    cont = continuity_witnesses(cut, samples=20, alpha=scenario.alpha,
                                seed=scenario.seed)
    ell = elliptic_monitors(g1, samples=20, alpha=scenario.alpha,
                            seed=scenario.seed)
    report.record(interval=rep1, disk=rep2, continuity=cont, elliptic=ell)
    report.check("product-inequality-violations",
                 rep1["product_violations"] + rep2["product_violations"], 0.0)
    report.check("leibniz-consistency",
                 max(rep1["leibniz_max_err"], rep2["leibniz_max_err"]), 1e-10)
    witnesses = [v for r in (rep1, rep2) for k, v in r.items() if "witness" in k]
    witnesses += list(cont.values())
    witnesses += [ell["schauder_ratio"], ell["linearity_defect"]]
    finite = all(np.isfinite(w) for w in witnesses)
    report.check("witnesses-finite", 0.0 if finite else 1.0, 0.0, ok=finite)
    return report.finish()


def _run_report(out_dir, quiet):
    if not os.path.isdir(out_dir):
        print(f"report: no artifact directory at {out_dir}", file=sys.stderr)
        return 2
    entries = []
    for name in sorted(os.listdir(out_dir)):
        summary = os.path.join(out_dir, name, "summary.json")
        if os.path.isfile(summary):
            with open(summary) as fh:
                entries.append((name, json.load(fh)))
    if not entries:
        print(f"report: no completed runs under {out_dir}", file=sys.stderr)
        return 2
    merged = {
        "schema_version": SCHEMA_VERSION,
        "runs": [
            {
                "scenario": e["scenario"],
                "command": e["command"],
                "config_hash": e["config_hash"],
                "status": e["status"],
                "criteria": e["criteria"],
            }
            for _, e in entries
        ],
    }
    _write_json(os.path.join(out_dir, "report.json"), merged)
    # embedding samples, re-exported in the exchange schema (first rows of
    # each run's embeddings CSVs, deterministic order)
    sample_dir = os.path.join(out_dir, "report_embeddings")
    os.makedirs(sample_dir, exist_ok=True)
    wrote = []
    for run_name, e in entries:
        emb_dir = os.path.join(out_dir, run_name, "embeddings")
        if not os.path.isdir(emb_dir):
            continue
        for fname in sorted(os.listdir(emb_dir)):
            src = os.path.join(emb_dir, fname)
            dst = os.path.join(sample_dir, f"{e['scenario']}_{fname}")
            with open(src) as fin, open(dst, "w") as fout:
                for i, line in enumerate(fin):
                    if i > 256:
                        break
                    fout.write(line)
            wrote.append(dst)
    if not quiet:
        print(f"report: {len(entries)} runs -> {os.path.join(out_dir, 'report.json')}")
        for p in wrote:
            print(f"  sample: {p}")
    return 0


_RUNNERS = {
    "check-free": _run_check_free,
    "solve-local": _run_solve_local,
    "solve-family": _run_solve_family,
    "solve-global": _run_solve_global,
    "verify-appendix": _run_verify_appendix,
}


def run_scenario(scenario: Scenario, out_dir, quiet=False) -> int:
    """Execute one validated scenario, writing artifacts under out_dir."""
    os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "embeddings"), exist_ok=True)
    report = RunReport(scenario, out_dir, quiet)
    return _RUNNERS[scenario.command](scenario, report)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="isoperturb",
        description="isometric-perturbation scenario runner",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run a {name} scenario")
        p.add_argument("--config", required=True, help="scenario YAML path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--resolution", type=int, default=None,
                       help="grid resolution override")
        p.add_argument("--quiet", action="store_true")
    p = sub.add_parser("report", help="consolidate completed runs")
    p.add_argument("--out", required=True, help="directory holding run outputs")
    p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.subcommand == "report":
        return _run_report(args.out, args.quiet)
    try:
        scenario = load_scenario(args.config)
        if scenario.command != args.subcommand:
            raise ScenarioError(
                f"command: config says {scenario.command!r} but the "
                f"{args.subcommand!r} subcommand was invoked",
                field="command",
            )
        if args.seed is not None:
            scenario.seed = args.seed
        if args.resolution is not None:
            scenario.resolution = check_resolution(args.resolution, "--resolution")
        if scenario.command == "solve-global" and scenario.family.name == "table":
            _table_family(scenario)  # path/shape validation before any artifact
    except ScenarioError as exc:
        where = f" [{exc.field}]" if exc.field else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or scenario.out or os.path.join("runs", scenario.name)
    return run_scenario(scenario, out_dir, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
