"""Span tracer that wraps the package's public functions from outside.

The package is not instrumented: a traced run replaces each target
function or method with a wrapper that records one span per call, and puts
the originals back when it ends.  A span record is (name, start, end,
parent, error, attrs); a layer's self time is its span minus the part of
that interval its direct child spans cover.

The package imports many names with ``from .x import y``, so a module-level
function is patched in every loaded ``isoperturb`` module that holds it
(``solve_fixed_point`` lives in ``fixedpoint``, ``family`` and ``atlas``).
A target that no longer exists is reported as missing; it never fails the
run, because an end-to-end run must not depend on the tracer.
"""

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

# (span name, module, attribute path).  Methods are patched on their class,
# so every instance and every caller sees the wrapper.
TARGETS = (
    ("config.load_scenario", "isoperturb.config", "load_scenario"),
    ("cli.run_scenario", "isoperturb.cli", "run_scenario"),
    ("grid.make_grid", "isoperturb.grid", "make_grid"),
    ("grid.derivative_matrix", "isoperturb.grid", "Grid.derivative_matrix"),
    ("grid.quotient_max", "isoperturb.grid", "Grid.quotient_max"),
    ("grid.holder_norm", "isoperturb.grid", "holder_norm"),
    ("grid.check_inequalities", "isoperturb.grid", "check_inequalities"),
    ("poisson.assemble", "isoperturb.poisson", "PoissonSolver.__init__"),
    ("poisson.solve", "isoperturb.poisson", "PoissonSolver.solve"),
    ("poisson.elliptic_monitors", "isoperturb.poisson", "elliptic_monitors"),
    ("operators.quadratic_load", "isoperturb.operators", "quadratic_load"),
    ("operators.tangential_correction", "isoperturb.operators", "tangential_correction"),
    ("operators.normal_correction", "isoperturb.operators", "normal_correction"),
    ("operators.continuity_witnesses", "isoperturb.operators", "continuity_witnesses"),
    ("frame.build_frame", "isoperturb.frame", "build_frame"),
    ("frame.apply_frame", "isoperturb.frame", "apply_frame"),
    ("fixedpoint.solve_fixed_point", "isoperturb.fixedpoint", "solve_fixed_point"),
    ("family.solve_family", "isoperturb.family", "solve_family"),
    ("atlas.glue_solve", "isoperturb.atlas", "glue_solve"),
    ("atlas.pullback_residual", "isoperturb.atlas", "pullback_residual"),
    ("atlas.write_csv", "isoperturb.atlas", "GlobalSolution.write_csv"),
    ("verify.isometry_residual", "isoperturb.verify", "isometry_residual"),
    ("verify.oracle_derivative_matrix", "isoperturb.verify", "oracle_derivative_matrix"),
)

# exceptions with which a fixed-point solve gives up; each one makes the
# enclosing adaptive-horizon loop halve its horizon
SOLVE_FAILURES = ("SmallnessViolation", "StalledIteration")


def _solve_attrs(result, exc):
    trace = result[1] if exc is None else getattr(exc, "trace", None)
    return {"iterations": len(trace.increments)} if trace is not None else {}


def _family_attrs(result, exc):
    return {} if exc is not None else {"kept": len(result.traces)}


def _glue_attrs(result, exc):
    if exc is not None:
        return {}
    return {"kept": sum(len(traces) for traces in result.stage_traces)}


# per-target readers of the facts a span's duration cannot give
ATTRS = {
    "fixedpoint.solve_fixed_point": _solve_attrs,
    "family.solve_family": _family_attrs,
    "atlas.glue_solve": _glue_attrs,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1  # index of the enclosing span, -1 for a root
    error: str = ""  # exception class name when the call raised
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    Children are the spans whose ``parent`` is the span's index; their
    intervals are clipped to the parent's and merged before subtracting.
    """
    children = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(k)
    out = []
    for k, s in enumerate(spans):
        ivals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[k]
        )
        covered, lo, hi = 0.0, None, None
        for a, b in ivals:
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.duration - covered)
    return out


def _resolve(module_name, path):
    """(owner, attribute, original) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Context manager: patch the targets on entry, restore them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.missing = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def __enter__(self):
        for name, module_name, path in self.targets:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "isoperturb" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        reader = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span.error = type(err).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if reader is not None:
                    try:
                        span.attrs = reader(result, exc)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # the target's return type changed; keep the span
                        span.attrs = {}

        return wrapper


# ---------------------------------------------------------------- per layer

OPERATORS = (
    "operators.quadratic_load",
    "operators.tangential_correction",
    "operators.normal_correction",
)


def _ratio(kept, attempted):
    # no solve attempted means no solve wasted
    return kept / attempted if attempted else 1.0


def layer_metrics(spans):
    """Per-layer counts and seconds from one traced workload run.

    Names and meanings are documented in perfbench/README.md.
    """
    selfs = self_times(spans)
    calls, self_s, total_s = {}, {}, {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        total_s[s.name] = total_s.get(s.name, 0.0) + s.duration

    def n(name):
        return calls.get(name, 0)

    def sf(name):
        return self_s.get(name, 0.0)

    def tot(name):
        return total_s.get(name, 0.0)

    # attribute every fixed-point solve to its nearest adaptive-horizon loop
    loops = {"family.solve_family": [0, 0, 0], "atlas.glue_solve": [0, 0, 0]}
    for k, s in enumerate(spans):
        if s.name in loops:
            loops[s.name][2] += s.attrs.get("kept", 0)
        if s.name != "fixedpoint.solve_fixed_point":
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in loops:
            p = spans[p].parent
        if p >= 0:
            acc = loops[spans[p].name]
            acc[0] += 1
            acc[1] += s.error in SOLVE_FAILURES
    solves = [s for s in spans if s.name == "fixedpoint.solve_fixed_point"]
    out = {
        "grid.quotient_max.calls": n("grid.quotient_max"),
        "grid.quotient_max.self_s": sf("grid.quotient_max"),
        "grid.holder_norm.calls": n("grid.holder_norm"),
        "grid.holder_norm.self_s": sf("grid.holder_norm"),
        "grid.make_grid.self_s": sf("grid.make_grid"),
        "grid.derivative_matrix.self_s": sf("grid.derivative_matrix"),
        "poisson.solve.calls": n("poisson.solve"),
        "poisson.solve.self_s": sf("poisson.solve"),
        "poisson.assemble_s": tot("poisson.assemble"),
        "operators.calls": sum(n(o) for o in OPERATORS),
        "operators.self_s": sum(sf(o) for o in OPERATORS),
        "frame.build_frame.calls": n("frame.build_frame"),
        "frame.build_frame.self_s": sf("frame.build_frame"),
        "frame.apply_frame.self_s": sf("frame.apply_frame"),
        "fixedpoint.solves": len(solves),
        "fixedpoint.iterations": sum(s.attrs.get("iterations", 0) for s in solves),
        "fixedpoint.failed": sum(s.error in SOLVE_FAILURES for s in solves),
        "fixedpoint.solve_s": tot("fixedpoint.solve_fixed_point"),
        "fixedpoint.self_s": sf("fixedpoint.solve_fixed_point"),
        "atlas.glue.self_s": sf("atlas.glue_solve"),
        "atlas.pullback_residual.self_s": sf("atlas.pullback_residual"),
        "atlas.write_csv.self_s": sf("atlas.write_csv"),
        "verify.isometry_residual.self_s": sf("verify.isometry_residual"),
        "verify.oracle_assembly_s": tot("verify.oracle_derivative_matrix"),
        "grid.check_inequalities.self_s": sf("grid.check_inequalities"),
        "operators.continuity_witnesses.self_s": sf("operators.continuity_witnesses"),
        "poisson.elliptic_monitors.self_s": sf("poisson.elliptic_monitors"),
        "cli.run_scenario.self_s": sf("cli.run_scenario"),
        "config.load_s": tot("config.load_scenario"),
        "trace.spans": len(spans),
    }
    for loop, prefix in (("family.solve_family", "family"), ("atlas.glue_solve", "atlas")):
        attempted, failed, kept = loops[loop]
        out[f"{prefix}.halvings"] = failed
        out[f"{prefix}.solves_discarded"] = attempted - kept
        out[f"{prefix}.useful_ratio"] = _ratio(kept, attempted)
    return out
