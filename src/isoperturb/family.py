"""Time-dependent perturbation solves on a single chart.

A metric family supplies g(x, t) on the chart; the windowed increment

    ghat(x, t) = psi(x) * (g(x, t) - g(x, 0))

is fed to an independent fixed-point solve per time sample (from v = 0, so
the a-priori bound is checked fresh each time).  When any sample trips the
smallness safeguards, the horizon is halved (same sample count) and the
run restarts; repeated collapse raises HorizonCollapse.  Time regularity
is probed by divided differences of u and its space derivatives across a
step refinement.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fixedpoint import (
    IterationConfig,
    SmallnessViolation,
    StalledIteration,
    solve_fixed_point,
)
from .frame import ImmersionFrame, apply_frame, build_frame
from .grid import Grid, ScalarField, SymTensorField, VecField, holder_norm, radial_bump, sym_indices
from .operators import Cutoff, radial_window
from .verify import isometry_residual


# a window is exactly 1 on B_WINDOW_FLAT and 0 outside B_WINDOW_SUPPORT;
# scenario validation reads the same limits
WINDOW_FLAT, WINDOW_SUPPORT = 0.5, 0.75
MAX_HALVINGS = 20


class HorizonCollapse(RuntimeError):
    """Adaptive horizon halving shrank below the minimum usable horizon."""

    def __init__(self, message, horizon=0.0):
        super().__init__(message)
        self.horizon = float(horizon)


def adaptive_horizon(run_pass, horizon, samples, dt_min):
    """Run run_pass(ts) over samples + 1 uniform times on [0, horizon].

    Each SmallnessViolation or StalledIteration halves the horizon (same
    sample count) and restarts the pass.  Raises HorizonCollapse once the
    horizon drops below dt_min * samples, or after MAX_HALVINGS passes.
    """
    horizon = float(horizon)
    for _ in range(MAX_HALVINGS):
        try:
            return run_pass(np.linspace(0.0, horizon, samples + 1))
        except (SmallnessViolation, StalledIteration):
            horizon *= 0.5
            if horizon < dt_min * samples:
                raise HorizonCollapse(
                    f"horizon collapsed below {dt_min}*{samples}", horizon=horizon
                ) from None
    raise HorizonCollapse("maximum horizon halvings exhausted", horizon=horizon)


@dataclass
class MetricFamily:
    """Closed-form metric family on a chart.

    evaluator(coords, t) returns the symmetric components (m, n(n+1)/2)
    at chart points; t_grid holds the uniform samples 0 = t0 < .. < T.
    """

    grid: Grid
    evaluator: callable
    t_grid: np.ndarray
    positivity_margin: float
    name: str = ""

    def sample(self, t) -> SymTensorField:
        vals = np.asarray(self.evaluator(self.grid.coords, float(t)), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return SymTensorField(self.grid, vals)


@dataclass
class FamilySolution:
    t_grid: np.ndarray
    us: list
    traces: list
    residuals: list
    horizon_used: float
    frame: ImmersionFrame
    window: ScalarField
    targets: list
    regularity_probe: dict = dc_field(default_factory=dict)


def _eig_min(vals, dim):
    if dim == 1:
        return float(np.min(vals[:, 0]))
    g11, g12, g22 = vals[:, 0], vals[:, 1], vals[:, 2]
    half_tr = 0.5 * (g11 + g22)
    disc = np.sqrt((0.5 * (g11 - g22)) ** 2 + g12**2)
    return float(np.min(half_tr - disc))


def build_family(name, grid: Grid, base=None, horizon=1.0, samples=8, beta=0.05,
                 bump_radius=0.4, bump_power=4) -> MetricFamily:
    """Construct a named closed-form family on the chart grid.

    names: constant | uniform-scale | bump-breathing | circle-breathing
    `base` is the chart's base metric (SymTensorField or chart object with
    base_metric); defaults to the flat metric.
    """
    if samples < 1:
        raise ValueError(f"build_family: need samples >= 1, got {samples}")
    if horizon <= 0:
        raise ValueError(f"build_family: horizon must be positive, got {horizon}")
    comps = grid.dim * (grid.dim + 1) // 2
    if base is None:
        base_vals = np.zeros((grid.num_nodes, comps))
        for k, (i, j) in enumerate(sym_indices(grid.dim)):
            if i == j:
                base_vals[:, k] = 1.0
    elif hasattr(base, "base_metric"):
        base_vals = base.base_metric(grid).values.copy()
    else:
        base_vals = np.asarray(base.values, dtype=float).copy()

    if name == "constant":
        def evaluator(coords, t):
            return base_vals
    elif name == "uniform-scale":
        def evaluator(coords, t):
            return (1.0 + beta * t) * base_vals
    elif name == "bump-breathing":
        prof = radial_bump(grid, bump_radius, bump_power)

        def evaluator(coords, t):
            out = base_vals.copy()
            out[:, 0] = out[:, 0] + beta * t * prof
            return out
    elif name == "circle-breathing":
        # chart pullback of (1 + beta*t*(1+cos theta)/2) d(theta)^2; needs a
        # chart with angles() (the base metric supplies the c^2 factor)
        if base is None or not hasattr(base, "angles"):
            raise ValueError("build_family: circle-breathing needs a circle chart as base")
        th = base.angles(grid)

        def evaluator(coords, t):
            scale = 1.0 + beta * t * 0.5 * (1.0 + np.cos(th))
            return scale[:, None] * base_vals
    else:
        raise ValueError(
            f"build_family: unknown family name {name!r}; expected constant, "
            "uniform-scale, bump-breathing or circle-breathing"
        )

    fam = MetricFamily(grid, evaluator, np.linspace(0.0, horizon, samples + 1), 0.0, name)
    margin = min(_eig_min(fam.sample(t).values, grid.dim) for t in fam.t_grid)
    if margin <= 0.0:
        raise ValueError(
            f"build_family: family loses positive definiteness (margin {margin:.3e})"
        )
    fam.positivity_margin = margin
    return fam


def chart_window(grid: Grid, flat=WINDOW_FLAT, support=WINDOW_SUPPORT, degree=9) -> ScalarField:
    """Pinned chart window: identically 1 on B_flat, 0 outside B_support."""
    return ScalarField(grid, radial_window(grid.radius(), flat, support, degree))


def _window_field(window, grid):
    w = window.a if isinstance(window, Cutoff) else window
    r = grid.radius()
    if np.any(w.values[r <= WINDOW_FLAT] != 1.0):
        raise ValueError("windowed_increment: window must be exactly 1 on the half ball")
    if np.any(w.values[r >= WINDOW_SUPPORT] != 0.0):
        raise ValueError("windowed_increment: window support must stay inside radius 3/4")
    return w


def windowed_increment(window, family: MetricFamily, t) -> SymTensorField:
    """ghat(.,t) = window * (g(.,t) - g(.,0)); exactly zero at t = 0."""
    g = family.grid
    w = _window_field(window, g)
    gt = family.sample(t).values
    g0 = family.sample(0.0).values
    return SymTensorField(g, w.values[:, None] * (gt - g0))


def solve_family(source, family: MetricFamily, window=None, cutoff=None,
                 config: IterationConfig = None, dt_min=1e-3) -> FamilySolution:
    """Per-sample independent fixed-point solves with adaptive horizon.

    Returns a FamilySolution whose residuals come from the fourth-order
    oracle; raises HorizonCollapse when halving drops the horizon below
    dt_min times the sample count.
    """
    g = family.grid
    frame = source if isinstance(source, ImmersionFrame) else build_frame(source, g)
    w = _window_field(window if window is not None else chart_window(g), g)
    cut = cutoff or Cutoff(g, 0.8, 0.95)
    # a^2*f = f needs the cutoff flat wherever the windowed increment lives;
    # each sample's solve enforces that support condition exactly, so a
    # cutoff narrower than the window is fine for families concentrated
    # deeper inside the chart (and converges much faster there).
    a2 = cut.values**2

    def run_pass(ts):
        us, traces, residuals, targets = [], [], [], []
        for t in ts:
            f = windowed_increment(w, family, t)
            v, trace = solve_fixed_point(frame, cut, f, config)
            u = VecField(g, a2[:, None] * v.values)
            F = VecField(g, frame.F0.values + u.values)
            res, _ = isometry_residual(F, frame.F0, f)
            us.append(u)
            traces.append(trace)
            residuals.append(res)
            targets.append(f)
        return FamilySolution(ts, us, traces, residuals, float(ts[-1]), frame, w, targets)

    return adaptive_horizon(run_pass, family.t_grid[-1], len(family.t_grid) - 1, dt_min)


def stability_gap(frame: ImmersionFrame, cut: Cutoff, f1: SymTensorField,
                  f2: SymTensorField, config: IterationConfig = None, alpha=0.5):
    """Compare two solves against the frame response to their difference."""
    v1, tr1 = solve_fixed_point(frame, cut, f1, config)
    v2, tr2 = solve_fixed_point(frame, cut, f2, config)
    g = f1.grid
    gap = holder_norm(VecField(g, v1.values - v2.values), 2, alpha).value
    zero_h = VecField(g, np.zeros((g.num_nodes, g.dim)))
    diff = SymTensorField(g, f1.values - f2.values)
    denom = holder_norm(apply_frame(frame, zero_h, diff), 2, alpha).value
    ratio = gap / denom if denom > 1e-14 else 0.0
    return {
        "gap": gap,
        "frame_norm": denom,
        "ratio": ratio,
        "iterations": (tr1.iterations, tr2.iterations),
    }


def time_regularity_probe(solution: FamilySolution, r_max=2) -> dict:
    """Divided-difference boundedness of u (and du) across a dt refinement.

    For each order r <= r_max, the sup of the r-th divided difference on
    the native grid is compared with the one on every-other-sample grid;
    bounded time regularity shows as a ratio <= 2 (guarded at 1e-12).
    """
    if r_max > 2:
        raise ValueError(f"time_regularity_probe configuration error: r_max <= 2, got {r_max}")
    K1 = len(solution.t_grid)
    if K1 < 2 * r_max + 1:
        raise ValueError(
            f"time_regularity_probe configuration error: need >= {2 * r_max + 1} "
            f"time samples for order {r_max}, got {K1}"
        )
    g = solution.us[0].grid
    dt = float(solution.t_grid[1] - solution.t_grid[0])
    stacks = [np.stack([u.values for u in solution.us], axis=0)]  # (K+1, nodes, q)
    for s_idx in _probe_indices(g.dim):
        m = g.derivative_matrix(s_idx)
        stacks.append(np.stack([m @ u.values for u in solution.us], axis=0))
    report = {"orders": {}}
    for r in range(1, r_max + 1):
        native = max(float(np.max(np.abs(np.diff(st, r, axis=0) / dt**r))) for st in stacks)
        coarse = max(
            float(np.max(np.abs(np.diff(st[::2], r, axis=0) / (2.0 * dt) ** r)))
            for st in stacks
        )
        ratio = native / coarse if coarse > 1e-12 else 1.0
        report["orders"][r] = {"native": native, "coarse": coarse, "ratio": ratio}
    solution.regularity_probe = report
    return report


def _probe_indices(dim):
    out = []
    for total in (1, 2):
        if dim == 1:
            out.append((total,))
        else:
            for i in range(total + 1):
                out.append((total - i, i))
    return out
