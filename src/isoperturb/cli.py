"""Configuration-driven command line: scenario runs, verification, reports.

Subcommands: check-free, solve-local, solve-family, solve-global,
verify-appendix, report.  Every run writes a schema-versioned
summary.json plus CSV traces/embeddings into the output directory; exit
status is 0 when all asserted tolerances hold, 1 on a named tolerance
failure, 2 on a config parse/validation error (in which case no
artifacts are written), 3 on an unexpected error during the run (recorded
in summary.json with status "error").  Outputs carry no timestamps, so
identical config + seed reproduces byte-identical artifacts.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from .atlas import (
    GLUE_CUTOFF,
    StageFailure,
    build_atlas,
    glue_solve,
    solution_residuals,
    write_embedding_csv,
)
from .config import (
    ScenarioError,
    Scenario,
    check_size,
    load_family_table,
    load_scenario,
    read_number,
    scenario_hash,
)
from .embeddings import CHARTS
from .family import (
    HorizonCollapse,
    build_family,
    build_manifold_family,
    chart_window,
    solve_family,
    stability_gap,
    table_family,
    time_regularity_probe,
    windowed_increment,
)
from .fixedpoint import (
    IterationConfig,
    SolveFailure,
    _check_f_support,
    bump_perturbation,
    local_perturb,
)
from .frame import NotFreeError, build_frame
from .grid import check_inequalities, make_grid
from .operators import Cutoff, continuity_witnesses
from .poisson import elliptic_monitors


SCHEMA_VERSION = 1

# solve-local's stability check: a load STABILITY_LOAD times the bump may move
# the correction by at most STABILITY_BOUND times the frame image of the
# load difference
STABILITY_LOAD = 1.1
STABILITY_BOUND = 1.1


def _chart_for(scenario: Scenario):
    chart = CHARTS[scenario.chart]
    return chart() if scenario.halfwidth is None else chart(halfwidth=scenario.halfwidth)


def _grid_for(scenario: Scenario):
    return make_grid(CHARTS[scenario.chart].dim, scenario.resolution)


def _iteration_config(scenario: Scenario) -> IterationConfig:
    return IterationConfig(tol=scenario.iteration_tol, alpha=scenario.alpha)


def _scenario_inputs(scenario: Scenario) -> dict:
    """The runner's inputs besides the report: the family and the atlas, or
    the chart's frame with the family, its window and its cutoff, or with
    the cutoff and the bump of a local solve.

    Built before any output exists; a family or an atlas that the builders
    reject is a config error on the `family` or the `charts` field, a chart
    that is not free one on `halfwidth`, and a bump that reaches past the
    cutoff's flat radius one on `bump_radius`.
    """
    spec = scenario.family
    if scenario.command == "solve-local":
        return _local_inputs(scenario)
    if scenario.command == "solve-family":
        g, chart = _grid_for(scenario), _chart_for(scenario)
        frame = _frame_for(chart, g)
        build = partial(build_family, spec.name, g, base=chart, beta=spec.beta,
                        bump_radius=spec.bump_radius, bump_power=spec.bump_power)
    elif scenario.command != "solve-global":
        return {}
    elif spec.name == "table":
        build = partial(table_family, scenario.manifold, *load_family_table(spec.table))
    else:
        build = partial(build_manifold_family, spec.name, scenario.manifold, beta=spec.beta)
    try:
        fam = build(horizon=spec.horizon, samples=spec.samples)
    except ValueError as exc:
        raise ScenarioError(str(exc), field="family") from None
    if scenario.command == "solve-family":
        window = chart_window(g, *(scenario.window or ()))
        # cut None: solve_family's default cutoff
        cut = Cutoff(g, *scenario.cutoff) if scenario.cutoff else None
        _check_family_cutoff(fam, window, cut)
        return {"frame": frame, "family": fam, "window": window, "cut": cut}
    try:
        atlas = build_atlas(scenario.manifold, scenario.charts)
    except ValueError as exc:
        raise ScenarioError(str(exc), field="charts") from None
    return {"family": fam, "atlas": atlas}


def _local_inputs(scenario: Scenario) -> dict:
    """The frame, the cutoff and the bump of solve-local, after the solver's
    support check."""
    g = _grid_for(scenario)
    frame = _frame_for(_chart_for(scenario), g)
    cut = Cutoff(g, *(scenario.cutoff or ()))
    f = bump_perturbation(g, scenario.amplitude, scenario.bump_radius)
    try:
        _check_f_support(cut, f)
    except ValueError as exc:
        raise ScenarioError(f"bump_radius: {exc}", field="bump_radius") from None
    return {"frame": frame, "cut": cut, "f": f}


def _frame_for(chart, grid):
    """The chart's frame on grid; a chart that is not free there is a config
    error on `halfwidth` (the default halfwidths give free charts)."""
    try:
        return build_frame(chart, grid)
    except NotFreeError as exc:
        raise ScenarioError(f"halfwidth: {exc}", field="halfwidth") from None


def _check_family_cutoff(fam, window, cut):
    """Reject a cutoff that is not flat wherever the windowed increment lives.

    Each sample's solve makes the same support check; making it here, for
    every t of the family, turns its failure into a config error on
    `cutoff`.  The default cutoff is flat beyond every accepted window.
    """
    if cut is None:
        return
    for t in fam.t_grid:
        try:
            _check_f_support(cut, windowed_increment(window, fam, t))
        except ValueError as exc:
            raise ScenarioError(f"cutoff: at t={t:g}, {exc}", field="cutoff") from None


# ------------------------------------------------------------------ artifacts


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace_csv(path, trace):
    """One row per step; ratio is its increment over the previous one (empty on row 0).

    norm is the certified upper bound on the iterate's norm, and norm_exact
    is 1 where it is the exact norm, 0 where it is the bound alone.
    """
    ratios = [None] + trace.ratios
    with open(path, "w") as fh:
        fh.write("iteration,norm,increment,ratio,poisson_residual,norm_exact\n")
        for i in range(trace.iterations):
            vals = (trace.norms[i], trace.increments[i], ratios[i], trace.poisson_residuals[i])
            cells = ["" if x is None else repr(float(x)) for x in vals]
            fh.write(",".join([str(i)] + cells + [str(int(trace.norm_exact[i]))]) + "\n")


def _record_halvings(report, halvings):
    """results.halvings, and the trace of each failed solve under traces/rejected/."""
    report.record(halvings=[h.summary() for h in halvings])
    if halvings:
        os.makedirs(os.path.join(report.out_dir, "traces", "rejected"), exist_ok=True)
    for j, h in enumerate(halvings):
        _write_trace_csv(
            os.path.join(report.out_dir, "traces", "rejected", f"halving_{j:02d}.csv"), h.trace
        )


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

    def finish(self, failure=None, error=None):
        """Write summary.json and return the exit code: 0, 1 on a failed
        criterion or a recorded failure, 3 on an unexpected error."""
        ok = failure is None and error is None and all(c["pass"] for c in self.criteria)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario.name,
            "command": self.scenario.command,
            "config_hash": scenario_hash(self.scenario),
            "seed": self.scenario.seed,
            "parameters": asdict(self.scenario),
            "results": self.results,
            "criteria": self.criteria,
            "status": "pass" if ok else "fail" if error is None else "error",
        }
        if failure is not None:
            payload["failure"] = failure
        if error is not None:
            payload["error"] = {"type": type(error).__name__, "message": str(error)}
        _write_json(os.path.join(self.out_dir, "summary.json"), payload)
        if not self.quiet:
            print(f"summary: {os.path.join(self.out_dir, 'summary.json')} "
                  f"({payload['status']})")
        if failure is not None and not self.quiet:
            print(f"[FAIL] {failure}")
        return 0 if ok else 1 if error is None else 3


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
    report.record(margin=frame.freeness_margin, eps_free=frame.eps_free, q=frame.q,
                  identity_defect=frame.identity_defect, nodes=g.num_nodes)
    report.check("freeness-margin", frame.freeness_margin, frame.eps_free, mode=">")
    report.check("frame-identity-defect", frame.identity_defect, 1e-10)
    return report.finish()


def _run_solve_local(scenario, report, frame, cut, f):
    g = frame.grid
    cfg = _iteration_config(scenario)
    trace_path = os.path.join(report.out_dir, "traces", "iteration.csv")
    try:
        u, rep = local_perturb(frame, f, config=cfg, cutoff=cut)
    except SolveFailure as exc:
        _write_trace_csv(trace_path, exc.trace)
        return report.finish(failure=str(exc))
    _write_trace_csv(trace_path, rep["trace"])
    write_embedding_csv(
        os.path.join(report.out_dir, "embeddings", "local.csv"),
        g.coords, [[frame.F0], [frame.F0 + u]], [0.0],
        ("x", "y")[: g.dim],
    )
    report.record(residual_sup=rep["residual_sup"], u_norm=rep["u_norm"],
                  iterations=rep["iterations"], support_leak=rep["support_leak"],
                  bound_ratio=rep["bound_ratio"], frame_bound=rep["frame_bound"])
    report.check("isometry-residual", rep["residual_sup"], scenario.residual_tol)
    report.check("support-leak", rep["support_leak"], 0.0)
    report.check("iterate-bound-monitor", 0.0 if rep["monitor_ok"] else 1.0, 0.0,
                 ok=rep["monitor_ok"])
    f2 = bump_perturbation(g, STABILITY_LOAD * scenario.amplitude, scenario.bump_radius)
    try:
        gap = stability_gap(frame, cut, f, rep["v"], f2, cfg)
    except SolveFailure as exc:
        return report.finish(failure=f"stability solve: {exc}")
    report.record(stability_ratio=gap["ratio"], stability_gap=gap["gap"],
                  stability_frame_norm=gap["frame_norm"])
    report.check("stability-ratio", gap["ratio"], STABILITY_BOUND)
    return report.finish()


def _run_solve_family(scenario, report, frame, family, window, cut):
    g = family.grid
    cfg = _iteration_config(scenario)
    try:
        sol = solve_family(frame, family, window=window, cutoff=cut, config=cfg)
    except HorizonCollapse as exc:
        report.record(horizon=exc.horizon)
        _record_halvings(report, exc.halvings)
        return report.finish(failure=f"horizon collapsed at {exc.horizon}")
    _record_halvings(report, sol.halvings)
    r_max = min(2, (len(sol.t_grid) - 1) // 2)
    probe = time_regularity_probe(sol, g, r_max=r_max) if r_max >= 1 else {"orders": {}}
    ratios = [probe["orders"][r]["ratio"] for r in probe["orders"]]
    for k, tr in enumerate(sol.traces):
        _write_trace_csv(
            os.path.join(report.out_dir, "traces", f"sample_{k:02d}.csv"), tr
        )
    stages = [[frame.F0 for _ in sol.t_grid], [frame.F0 + u for u in sol.us]]
    write_embedding_csv(
        os.path.join(report.out_dir, "embeddings", "family.csv"),
        g.coords, stages, list(sol.t_grid), ("x", "y")[: g.dim],
    )
    report.record(
        horizon_used=sol.horizon_used,
        residuals=[float(r) for r in sol.residuals],
        u0_max=float(np.max(np.abs(sol.us[0]))),
        probe=probe,
    )
    report.check("initial-sample-is-zero", float(np.max(np.abs(sol.us[0]))), 0.0)
    report.check("max-sample-residual", float(max(sol.residuals)), scenario.residual_tol)
    if ratios:
        report.check("probe-ratio", float(max(ratios)), 2.0)
    return report.finish()


def _run_solve_global(scenario, report, family, atlas):
    cfg = _iteration_config(scenario)
    radii = tuple(scenario.cutoff) if scenario.cutoff else GLUE_CUTOFF
    try:
        sol = glue_solve(family, atlas, chart_resolution=scenario.resolution,
                         mesh=scenario.mesh, config=cfg, cutoff_radii=radii)
    except HorizonCollapse as exc:
        report.record(horizon=exc.horizon)
        _record_halvings(report, exc.halvings)
        return report.finish(failure=f"glue horizon collapsed at {exc.horizon}")
    except StageFailure as exc:
        report.record(stage=exc.stage)
        return report.finish(failure=str(exc))
    _record_halvings(report, sol.halvings)
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
    t0_exact = bool(np.all(sol.F[0] == sol.F_stages[0][0]))
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
    for run_name, _ in entries:
        emb_dir = os.path.join(out_dir, run_name, "embeddings")
        if not os.path.isdir(emb_dir):
            continue
        for fname in sorted(os.listdir(emb_dir)):
            src = os.path.join(emb_dir, fname)
            # named after the run's directory: unique under out_dir, where
            # two runs may share a scenario name
            dst = os.path.join(sample_dir, f"{run_name}_{fname}")
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
    """Execute one validated scenario, writing artifacts under out_dir, and
    return its exit code (see the module docstring).

    Raises ScenarioError, with nothing written, if its family or its atlas
    is rejected.  Any other error during the run is recorded in
    summary.json and returns 3.
    """
    inputs = _scenario_inputs(scenario)
    os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "embeddings"), exist_ok=True)
    report = RunReport(scenario, out_dir, quiet)
    try:
        return _RUNNERS[scenario.command](scenario, report, **inputs)
    except Exception as exc:  # neither a config error nor a recorded failure
        message = " ".join(str(exc).splitlines())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return report.finish(error=exc)


def _check_out_dir(out_dir):
    """Reject an output path that is, or lies below, something not a directory."""
    path = os.path.abspath(out_dir)
    while not os.path.isdir(path):
        if os.path.exists(path):
            raise ScenarioError(f"out: {path} exists and is not a directory", field="out")
        path = os.path.dirname(path)


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
            scenario.seed = read_number("seed", args.seed, "--seed")
        if args.resolution is not None:
            scenario.resolution = read_number("resolution", args.resolution, "--resolution")
            check_size(scenario)
        out_dir = args.out or scenario.out or os.path.join("runs", scenario.name)
        _check_out_dir(out_dir)
        return run_scenario(scenario, out_dir, args.quiet)
    except ScenarioError as exc:
        where = f" [{exc.field}]" if exc.field else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
