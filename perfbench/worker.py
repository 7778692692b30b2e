"""One workload run in a fresh interpreter; prints one JSON record.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --scenario S --out DIR --t0 T
        [--setup-only] [--trace]

``--t0`` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so ``setup_s`` covers interpreter start, the imports
and ``config.load_scenario``.  The timed region is the workload's calls
into the package and nothing else; the output checks run after it.
"""

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

import oracle
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _tree_bytes(path):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def run_norm_suite(iso, sc):
    """The three verify-appendix calls, made directly; returns their reports."""
    size = workloads.NORM_SUITE
    g1 = iso.grid.make_grid(1, sc.resolution)
    g2 = iso.grid.make_grid(2, size["disk_resolution"])
    reports = (
        iso.grid.check_inequalities(g1, samples=sc.appendix_samples, alpha=sc.alpha,
                                    seed=sc.seed),
        iso.grid.check_inequalities(g2, samples=size["disk_samples"], alpha=sc.alpha,
                                    seed=sc.seed),
        iso.operators.continuity_witnesses(iso.operators.Cutoff(g1),
                                           samples=size["monitor_samples"],
                                           alpha=sc.alpha, seed=sc.seed),
        iso.poisson.elliptic_monitors(g1, samples=size["monitor_samples"],
                                      alpha=sc.alpha, seed=sc.seed),
    )
    return reports, (g1, g2)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import isoperturb as iso
    import isoperturb.cli  # noqa: F401  (submodules used through `iso`)

    if not os.path.abspath(iso.__file__).startswith(SRC + os.sep):
        print(f"isoperturb imported from {iso.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tr = tracer.Tracer().__enter__() if args.trace else None
    sc = iso.config.load_scenario(args.scenario)
    record = {"setup_s": _monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    record.update(workload=args.workload, traced=args.trace, seed=sc.seed,
                  beta=sc.family.beta if sc.command != "verify-appendix" else None)
    problems = []
    cpu0, w0 = _cpu_s(), time.perf_counter()
    try:
        if sc.command == "verify-appendix":
            output = run_norm_suite(iso, sc)
        else:
            output = iso.cli.run_scenario(sc, args.out, quiet=True)
    except Exception:  # a failed run is a measurement, not a crash
        output = None
        problems.append(traceback.format_exc())
    w1 = time.perf_counter()
    record.update(
        run_s=w1 - w0,
        cpu_s=_cpu_s() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tr is not None:
        tr.restore()
        record["missing"] = tr.missing
        layers = tracer.layer_metrics(tr.spans)
        layers["trace.missing"] = len(tr.missing)
        # the root spans inside the timed region: what the layers account for
        layers["trace.covered_s"] = sum(
            s.duration for s in tr.spans if s.parent < 0 and s.start >= w0 and s.end <= w1
        )
        record["layers"] = layers

    residual, halvings = math.nan, 0
    if output is not None and sc.command == "verify-appendix":
        residual, found = oracle.check_norm_suite(*output)
        problems += found
    elif output is not None:
        if output != 0:
            problems.append(f"run_scenario returned exit code {output}")
        residual, found = oracle.check_solve(sc, args.out)
        problems += found
        summary, _ = oracle.read_summary(args.out)
        used = (summary or {}).get("results", {}).get("horizon_used")
        if used:
            halvings = round(math.log2(sc.family.horizon / used))
        record["artifact_bytes"] = _tree_bytes(args.out)
    record.update(residual=residual, halvings=halvings, ok=not problems, problems=problems)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
