"""Benchmark of isoperturb: time to a verified solution, set-up and memory.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

A run is a closed loop: one workload repetition at a time, each in a fresh
single-threaded interpreter (perfbench/worker.py), the next started when the
previous one ends, until ``--seconds`` have passed (at least one
repetition).  Repetition k of seed N gets the inputs
``workloads.make_scenario(W, N, k)``.  Every repetition's output is checked
by perfbench/oracle.py.

With ``--trace 0`` the run also starts SETUP_PROBES interpreters that only
import the package and parse the scenario, and reports the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones.  ``--workload all``
runs every workload in turn.  README.md documents every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full records,
including the machine context, go to .perfbench_out/results/.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def context():
    """Where and with what a run was measured.  Nothing here is tuned."""
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **versions,
        "thread_env_found": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_env_children": {k: "1" for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(workload, seed, rep, mode, deadline):
    """Start one worker and wait for it; returns its record.

    mode is "setup" (import and parse only), "run" or "trace".
    """
    work = OUT / "work" / f"{workload}-seed{seed}-rep{rep}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(workloads.make_scenario(workload, seed, rep)))
    t0 = _monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--scenario", str(scenario), "--out", str(work / "out"), "--t0", repr(t0)]
    cmd += {"setup": ["--setup-only"], "run": [], "trace": ["--trace"]}[mode]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - _monotonic()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "rep": rep, "problems": ["worker timed out"], "work": str(work)}
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        record = {"ok": False, "problems": ["worker printed no record"]}
    if proc.returncode != 0:
        record["ok"] = False
        record.setdefault("problems", []).append(
            f"worker exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record["rep"] = rep
    if mode == "setup" or record.get("ok"):
        shutil.rmtree(work, ignore_errors=True)
    else:
        record["work"] = str(work)
    return record


def _median(records, key):
    vals = [r[key] for r in records if isinstance(r.get(key), (int, float))
            and math.isfinite(r[key])]
    return statistics.median(vals) if vals else None


def measure(workload, seed, seconds, trace):
    """Run the closed loop; returns (records, setup probes, metrics)."""
    deadline = _monotonic() + RUN_BUDGET_S
    probes = [] if trace else [launch(workload, seed, 0, "setup", deadline)
                               for _ in range(SETUP_PROBES)]
    reps, start = [], _monotonic()
    while True:
        mode = "trace" if trace and len(reps) % 2 else "run"
        t = _monotonic()
        reps.append(launch(workload, seed, len(reps), mode, deadline))
        now = _monotonic()
        done = now - start >= seconds and (not trace or len(reps) >= 2)
        # never start a repetition that would likely end after the budget
        if done or now + 1.2 * (now - t) > deadline:
            break

    plain = [r for r in reps if not r.get("traced")]
    traced = [r for r in reps if r.get("traced")]
    if trace:
        metrics = {}
        names = sorted({k for r in traced for k in r.get("layers", {})})
        for name in names:
            metrics[name] = statistics.median(r["layers"][name] for r in traced
                                               if name in r.get("layers", {}))
        metrics["cli.artifact_bytes"] = _median(traced, "artifact_bytes") or 0
        metrics["trace.run_s"] = _median(traced, "run_s")
        metrics["trace.untraced_run_s"] = _median(plain, "run_s")
        if None not in (metrics["trace.run_s"], metrics["trace.untraced_run_s"]):
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
            metrics["trace.uncovered_s"] = statistics.median(
                r["run_s"] - r["layers"]["trace.covered_s"] for r in traced if "layers" in r)
    else:
        metrics = {
            "run_s": _median(plain, "run_s"),
            "setup_s": _median(probes + plain, "setup_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "residual": _median(plain, "residual"),
            "passed_frac": sum(bool(r.get("ok")) for r in reps) / len(reps),
        }
    return reps, probes, {k: v for k, v in metrics.items() if v is not None}


def _units(kind):
    """name -> unit of the metrics BENCHMARK.json lists under ``kind``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    p = argparse.ArgumentParser(description="isoperturb benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "isoperturb" / "__init__.py").is_file():
        print(f"perfbench: no isoperturb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ctx = context()
    print("context: " + json.dumps(ctx, sort_keys=True))
    units = _units("per_layer" if args.trace else "end_to_end")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        reps, probes, metrics = measure(name, args.seed, args.seconds, bool(args.trace))
        failed = [r for r in reps if not r.get("ok")]
        print(f"\n{name}: seed {args.seed}, {len(reps)} repetitions, {len(failed)} failed, "
              f"halvings {sorted({r.get('halvings') for r in reps if 'halvings' in r})}")
        for r in failed:
            print(f"  FAILED rep {r['rep']}: {' | '.join(r.get('problems', []))[:2000]}"
                  f" (kept in {r.get('work')})")
        missing = sorted({m for r in reps for m in r.get("missing", [])})
        if missing:
            print(f"  tracer: targets missing from the package: {', '.join(missing)}")
        for key, unit in units.items():
            print(f"  {key:40s} {metrics.get(key, math.nan):>16.6g} {unit}")
        results[name] = (reps, probes, metrics)
        out = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"context": ctx, "args": vars(args), "workload": name,
                                   "metrics": metrics, "repetitions": reps,
                                   "setup_probes": probes}, indent=1, default=str))
        print(f"  records: {out.relative_to(ROOT)}")

    measured = [r for reps, _, _ in results.values() for r in reps if "run_s" in r]
    if not measured:
        print("perfbench: no repetition ran; the package could not be started",
              file=sys.stderr)
        return 1
    attempted = sum(len(reps) for reps, _, _ in results.values())
    failed = sum(not r.get("ok") for reps, _, _ in results.values() for r in reps)
    if len(names) == 1:
        metrics = results[names[0]][2]
        want = units
    else:
        metrics = {f"{w}.{k}": v for w, (_, _, m) in results.items() for k, v in m.items()}
        want = {f"{w}.{k}": u for w in names for k, u in units.items()}
    print(json.dumps({
        "correct": failed == 0 and all(k in metrics for k in want),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": want[k]} for k, v in metrics.items() if k in want},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
