"""Metric families and time-dependent perturbation solves on a single chart.

Every metric family g(t), on a chart or on a whole manifold, is built
here from one formula table and passes one positivity rule.  On a chart,
the windowed increment

    ghat(x, t) = psi(x) * (g(x, t) - g(x, 0))

is fed to an independent fixed-point solve per time sample (from v = 0, so
the a-priori bound is checked fresh each time), the largest t first.  When
any sample trips the smallness safeguards, the horizon is halved (same
sample count), the failure is recorded and the run restarts; repeated
collapse raises HorizonCollapse.  Time regularity is probed by divided
differences of u and its space derivatives across a step refinement.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .embeddings import BASE_METRICS, make_mesh
from .fixedpoint import IterationConfig, IterationTrace, SolveFailure, solve_fixed_point
from .frame import ImmersionFrame, apply_frame
from .grid import Grid, VecField, holder_norm, multi_indices, radial_bump
from .operators import Cutoff, radial_window
from .spline import cubic_spline
from .verify import isometry_residual


# a window is exactly 1 on B_WINDOW_FLAT and 0 outside B_WINDOW_SUPPORT;
# scenario validation reads the same limits
WINDOW_FLAT, WINDOW_SUPPORT = 0.5, 0.75
MAX_HALVINGS = 20
DT_MIN = 1e-3  # see adaptive_horizon


@dataclass
class Halving:
    """A pass that adaptive_horizon threw away, and the solve that failed it."""

    horizon: float
    t: float
    stage: int  # the glue stage; None in a chart family
    trace: IterationTrace

    def summary(self) -> dict:
        """Its summary.json entry: where the solve failed, and how."""
        tr = self.trace
        entry = {"horizon": self.horizon, "t": self.t, "kind": tr.status,
                 "iterations": tr.iterations,
                 "last_ratio": tr.ratios[-1] if tr.ratios else None,
                 "steps_to_tol": tr.steps_to_tol()}
        if self.stage is not None:
            entry["stage"] = self.stage
        return entry


class HorizonCollapse(RuntimeError):
    """Adaptive horizon halving shrank below the minimum usable horizon."""

    def __init__(self, message, horizon=0.0, halvings=()):
        super().__init__(message)
        self.horizon = float(horizon)
        self.halvings = list(halvings)


def adaptive_horizon(run_pass, horizon, samples):
    """Run run_pass(ts) over samples + 1 uniform times on [0, horizon].

    Each SolveFailure (SmallnessViolation or StalledIteration) halves the
    horizon (same sample count) and restarts the pass; the result gets one
    Halving per failed pass as .halvings.  Raises HorizonCollapse, with the
    same list, once the horizon drops below DT_MIN * samples, or after
    MAX_HALVINGS passes.
    """
    horizon = float(horizon)
    halvings = []
    for _ in range(MAX_HALVINGS):
        try:
            result = run_pass(np.linspace(0.0, horizon, samples + 1))
        except SolveFailure as exc:
            halvings.append(Halving(horizon, exc.t, exc.stage, exc.trace))
            horizon *= 0.5
            if horizon < DT_MIN * samples:
                raise HorizonCollapse(
                    f"horizon collapsed below {DT_MIN}*{samples}", horizon, halvings
                ) from None
        else:
            result.halvings = halvings
            return result
    raise HorizonCollapse("maximum horizon halvings exhausted", horizon, halvings)


@contextmanager
def locate_failure(t, stage=None):
    """Give a solve failure raised inside the sample's t (and glue stage)."""
    try:
        yield
    except SolveFailure as exc:
        exc.t, exc.stage = float(t), stage
        raise


@dataclass
class MetricFamily:
    """A smooth family g(t) of metrics, sampled at 0 = t0 < .. < horizon.

    evaluator(points, t) returns the symmetric components (m, n(n+1)/2)
    at m points: manifold angles for a global family, the nodes of its
    grid for a chart family (whose node values the builder precomputes).
    """

    evaluator: callable
    horizon: float
    samples: int
    name: str = ""
    grid: Grid = None

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"MetricFamily: need samples >= 1, got {self.samples}")
        if self.horizon <= 0:
            raise ValueError(f"MetricFamily: horizon must be positive, got {self.horizon}")

    @property
    def t_grid(self):
        return np.linspace(0.0, self.horizon, self.samples + 1)

    def sample(self, t):
        """g(., t) on the grid of a chart family, (nodes, n(n+1)/2)."""
        return self.evaluator(self.grid.coords, float(t))


@dataclass
class FamilySolution:
    t_grid: np.ndarray
    us: list  # u = a^2 v at each t, (nodes, q) arrays on the family's grid
    traces: list
    residuals: list
    horizon_used: float
    halvings: list = field(default_factory=list)  # see adaptive_horizon


# s(theta1, t) of the families that charts and manifolds share: g(t) is s
# times the base metric, with theta1 the first angle of the points
SCALES = {
    "constant": lambda beta, th, t: np.ones_like(th),
    "uniform-scale": lambda beta, th, t: np.full_like(th, 1.0 + beta * t),
    "circle-breathing": lambda beta, th, t: 1.0 + beta * t * 0.5 * (1.0 + np.cos(th)),
}
CHART_FAMILIES = (*SCALES, "bump-breathing")
GLOBAL_FAMILIES = (*SCALES, "table")
# angles per axis of the mesh on which a global family's positivity is
# checked; it holds theta1 = 0 and pi, where every shared scale is extreme
POSITIVITY_MESH = 64


def positivity_margin(family: MetricFamily, points) -> float:
    """The positivity rule of every family: its smallest eigenvalue.

    The minimum is taken over the points and the family's sample times;
    raises ValueError unless it is > 0 (a NaN margin fails too).
    """
    margin = min(_eig_min(family.evaluator(points, t)) for t in family.t_grid)
    if not margin > 0.0:
        raise ValueError(f"family {family.name!r} loses positive definiteness "
                         f"(smallest eigenvalue {margin:.3e})")
    return margin


def _eig_min(vals):
    if vals.shape[1] == 1:
        return float(np.min(vals[:, 0]))
    g11, g12, g22 = vals[:, 0], vals[:, 1], vals[:, 2]
    half_tr = 0.5 * (g11 + g22)
    disc = np.sqrt((0.5 * (g11 - g22)) ** 2 + g12**2)
    return float(np.min(half_tr - disc))


def build_family(name, grid: Grid, base, horizon=1.0, samples=8, beta=0.05,
                 bump_radius=0.4, bump_power=4) -> MetricFamily:
    """A shared family (see SCALES) or bump-breathing on the chart grid.

    `base` is the chart: g(0) is its base_metric, and a shared scale reads
    its angles (on the torus the first angle).
    """
    base_vals = base.base_metric(grid)

    if name == "bump-breathing":
        prof = radial_bump(grid, bump_radius, bump_power)

        def evaluator(points, t):
            out = base_vals.copy()
            out[:, 0] = out[:, 0] + beta * t * prof
            return out
    elif name in SCALES:
        th = base.angles(grid)[:, 0]
        scale = SCALES[name]

        def evaluator(points, t):
            return scale(beta, th, t)[:, None] * base_vals
    else:
        raise ValueError(f"build_family: unknown family name {name!r}; expected one "
                         f"of {list(CHART_FAMILIES)}")
    fam = MetricFamily(evaluator, float(horizon), int(samples), name, grid)
    positivity_margin(fam, grid.coords)
    return fam


def build_manifold_family(name, manifold, beta=0.05, horizon=1.0, samples=8) -> MetricFamily:
    """A shared family (see SCALES) on the circle or the torus.

    The base is the flat metric the shipped embedding induces in the
    manifold's angles.
    """
    if name not in SCALES:
        raise ValueError(f"build_manifold_family: unknown family name {name!r}; "
                         f"expected one of {list(SCALES)}")
    scale, base = SCALES[name], BASE_METRICS[manifold]

    def evaluator(points, t):
        return scale(beta, np.atleast_2d(points)[:, 0], t)[:, None] * base

    fam = MetricFamily(evaluator, float(horizon), int(samples), name)
    positivity_margin(fam, make_mesh(manifold, POSITIVITY_MESH))
    return fam


def table_family(manifold, t_values, components, horizon=1.0, samples=8) -> MetricFamily:
    """A spatially constant family on the circle or the torus, read from a table.

    Row k of components holds the metric components at t_values[k]
    (strictly increasing); in between, the components are cubic splines in t.
    """
    want = BASE_METRICS[manifold].size
    if components.shape[1] != want:
        raise ValueError(f"family table has {components.shape[1]} component columns; "
                         f"the {manifold} needs {want}")
    if t_values[0] > 1e-12:
        raise ValueError(f"family table starts at t={t_values[0]}, after t=0")
    if horizon > t_values[-1] + 1e-12:
        raise ValueError(f"family table ends at t={t_values[-1]} but the horizon is {horizon}")
    spline = cubic_spline(t_values, components)

    def evaluator(points, t):
        return np.tile(spline(float(t)), (np.atleast_2d(points).shape[0], 1))

    fam = MetricFamily(evaluator, float(horizon), int(samples), "table")
    positivity_margin(fam, make_mesh(manifold, POSITIVITY_MESH))
    return fam


def chart_window(grid: Grid, flat=WINDOW_FLAT, support=WINDOW_SUPPORT):
    """Pinned chart window at the nodes: identically 1 on B_flat, 0 outside B_support."""
    return radial_window(grid.radius(), flat, support)


def _window_field(window, grid):
    r = grid.radius()
    if np.any(window[r <= WINDOW_FLAT] != 1.0):
        raise ValueError("windowed_increment: window must be exactly 1 on the half ball")
    if np.any(window[r >= WINDOW_SUPPORT] != 0.0):
        raise ValueError("windowed_increment: window support must stay inside radius 3/4")
    return window


def windowed_increment(window, family: MetricFamily, t):
    """ghat(.,t) = window * (g(.,t) - g(.,0)) on the family's grid; exactly zero at t = 0."""
    w = _window_field(window, family.grid)
    return w[:, None] * (family.sample(t) - family.sample(0.0))


def solve_family(frame: ImmersionFrame, family: MetricFamily, window, cutoff=None,
                 config: IterationConfig = None) -> FamilySolution:
    """Per-sample independent fixed-point solves with adaptive horizon.

    frame is the chart's frame on the family's grid, and window (see
    chart_window) shapes the increment.  Returns a FamilySolution whose
    residuals come from the fourth-order oracle; raises HorizonCollapse
    when halving drops the horizon below DT_MIN times the sample count.
    """
    g = family.grid
    w = _window_field(window, g)
    cut = cutoff or Cutoff(g, 0.8, 0.95)
    # a^2*f = f needs the cutoff flat wherever the windowed increment lives;
    # each sample's solve enforces that support condition exactly, so a
    # cutoff narrower than the window is fine for families concentrated
    # deeper inside the chart (and converges much faster there).
    a2 = cut.values**2

    def run_pass(ts):
        us, traces, residuals = [None] * len(ts), [None] * len(ts), [None] * len(ts)
        # the largest t first: its increment is the largest, and the likeliest
        # to fail the pass
        for k in reversed(range(len(ts))):
            f = windowed_increment(w, family, ts[k])
            with locate_failure(ts[k]):
                v, traces[k] = solve_fixed_point(frame, cut, f, config)
            us[k] = a2[:, None] * v
            residuals[k], _ = isometry_residual(VecField(g, frame.F0 + us[k]),
                                                VecField(g, frame.F0), f)
        return FamilySolution(ts, us, traces, residuals, float(ts[-1]))

    return adaptive_horizon(run_pass, family.horizon, family.samples)


def stability_gap(frame: ImmersionFrame, cut: Cutoff, f1, v1, f2,
                  config: IterationConfig = None):
    """Compare two solves against the frame response to their difference.

    v1 is the fixed point already solved for f1 with this frame, cutoff and
    config; only f2 is solved here.  Returns gap = |v1 - v2|_{2,alpha},
    frame_norm = |E(0, f1 - f2)|_{2,alpha} in the solves' own alpha, their
    ratio (0 when the frame norm vanishes) and the trace of the f2 solve.
    """
    v2, trace = solve_fixed_point(frame, cut, f2, config)
    alpha = (config or IterationConfig()).alpha
    g = frame.grid
    gap = holder_norm(VecField(g, v1 - v2), 2, alpha)
    zero_h = np.zeros((g.num_nodes, g.dim))
    denom = holder_norm(VecField(g, apply_frame(frame, zero_h, f1 - f2)), 2, alpha)
    ratio = gap / denom if denom > 1e-14 else 0.0
    return {
        "gap": gap,
        "frame_norm": denom,
        "ratio": ratio,
        "trace": trace,
    }


def time_regularity_probe(solution: FamilySolution, grid: Grid, r_max=2) -> dict:
    """Divided-difference boundedness of u (and du) across a dt refinement.

    grid is the one the solution's fields live on (the family's).

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
    dt = float(solution.t_grid[1] - solution.t_grid[0])
    stacks = [np.stack(solution.us, axis=0)]  # (K+1, nodes, q)
    for s_idx in multi_indices(grid.dim, 1) + multi_indices(grid.dim, 2):
        m = grid.derivative_matrix(s_idx)
        stacks.append(np.stack([m @ u for u in solution.us], axis=0))
    report = {"orders": {}}
    for r in range(1, r_max + 1):
        native = max(float(np.max(np.abs(np.diff(st, r, axis=0) / dt**r))) for st in stacks)
        coarse = max(
            float(np.max(np.abs(np.diff(st[::2], r, axis=0) / (2.0 * dt) ** r)))
            for st in stacks
        )
        ratio = native / coarse if coarse > 1e-12 else 1.0
        report["orders"][r] = {"native": native, "coarse": coarse, "ratio": ratio}
    return report
