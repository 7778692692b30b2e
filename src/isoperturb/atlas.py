"""Chart atlases and sequential gluing on the circle and the flat torus.

A global metric change g(.,t) - g(.,0) is split by a partition of unity
into chart-local increments, and the perturbation solve runs chart by
chart: stage i perturbs the stage i-1 embedding only inside chart i
(bit-identical outside), rebuilding the derivative frame from the current
embedding at every time sample.  The final pullback is checked by a
solver-independent periodic finite-difference oracle on the global mesh.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.interpolate import CubicSpline, RegularGridInterpolator

from .embeddings import CircleChart, TorusChart
from .embeddings import circle_embedding, torus_embedding  # noqa: F401  (public here too)
from .family import adaptive_horizon
from .fixedpoint import IterationConfig, solve_fixed_point
from .frame import NotFreeError, build_frame, freeness_threshold
from .grid import SymTensorField, VecField, make_grid
from .operators import Cutoff, radial_window
from .verify import periodic_derivative


TWO_PI = 2.0 * np.pi


class StageFailure(RuntimeError):
    """A gluing stage lost freeness (or otherwise failed); carries the stage."""

    def __init__(self, message, stage, t=None):
        super().__init__(message)
        self.stage = int(stage)
        self.t = t


def _wrap(delta):
    """Wrap angles to (-pi, pi]."""
    return np.mod(np.asarray(delta) + np.pi, TWO_PI) - np.pi


@dataclass
class AtlasChart:
    index: int
    center: np.ndarray  # manifold angles, shape (d,)
    halfwidth: float
    chart: object  # analytic reference chart (CircleChart / TorusChart)

    def to_chart(self, points):
        """Manifold angles -> chart coordinates (points outside map to |x|>1)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _wrap(pts - self.center[None, :]) / self.halfwidth

    def to_manifold(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.center[None, :] + self.halfwidth * X


@dataclass
class Atlas:
    manifold: str
    charts: list
    psi_flat: float = 0.45
    psi_supp: float = 0.82
    degree: int = 9
    coverage_margin: float = 0.0

    @property
    def dim(self):
        return 1 if self.manifold == "circle" else 2

    def _chart_radius(self, chart, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        delta = _wrap(pts - chart.center[None, :])
        return np.sqrt((delta**2).sum(axis=1)) / chart.halfwidth

    def bump(self, k, points):
        """Chart-k partition bump: 1 inside psi_flat, 0 outside psi_supp."""
        r = self._chart_radius(self.charts[k], points)
        return radial_window(r, self.psi_flat, self.psi_supp, self.degree)

    def partition(self, points):
        """psi_k(points) for all charts, rows summing to 1 (up to roundoff)."""
        bumps = np.stack([self.bump(k, points) for k in range(len(self.charts))])
        total = bumps.sum(axis=0)
        if np.any(total <= 0.0):
            raise ValueError("atlas partition: charts fail to cover a probe point")
        return bumps / total[None, :]


def build_atlas(manifold, num_charts, psi_flat=0.45, psi_supp=0.82, degree=9) -> Atlas:
    """Equispaced-center atlas with a normalized-bump partition of unity.

    circle: num_charts >= 2 arcs of halfwidth 1.5*pi/num_charts;
    torus: exactly 4 charts (disks of angular radius 3.0 centered on
    {0, pi}^2) — fewer cannot cover with the required overlap margin.
    """
    if not (0.0 < psi_flat < psi_supp < 1.0):
        raise ValueError(
            f"build_atlas: need 0 < psi_flat < psi_supp < 1, got ({psi_flat}, {psi_supp})"
        )
    if manifold == "circle":
        if num_charts < 2:
            raise ValueError(
                f"build_atlas: the circle needs at least 2 charts, got {num_charts}"
            )
        halfwidth = 1.5 * np.pi / num_charts
        if psi_supp * halfwidth * num_charts < np.pi + 1e-12:
            raise ValueError(
                "build_atlas: partition supports fail to cover the circle"
            )
        charts = []
        for k in range(num_charts):
            center = np.array([TWO_PI * k / num_charts])
            charts.append(
                AtlasChart(k, center, halfwidth, CircleChart(center[0], halfwidth))
            )
    elif manifold == "torus":
        if num_charts != 4:
            raise ValueError(
                f"build_atlas: cannot cover the torus with the required overlap "
                f"margin using {num_charts} charts; 4 are needed (centers on "
                "{0, pi}^2)"
            )
        halfwidth = 3.0
        charts = []
        for k, (cu, cv) in enumerate([(0.0, 0.0), (np.pi, 0.0), (0.0, np.pi), (np.pi, np.pi)]):
            center = np.array([cu, cv])
            charts.append(AtlasChart(k, center, halfwidth, TorusChart((cu, cv), halfwidth)))
    else:
        raise ValueError(f"build_atlas: unknown manifold {manifold!r}")
    atlas = Atlas(manifold, charts, psi_flat, psi_supp, degree)
    probe = _coverage_probe(atlas)
    bumps = np.stack([atlas.bump(k, probe) for k in range(num_charts)])
    margin = float(bumps.sum(axis=0).min())
    if margin <= 0.0:
        raise ValueError(
            f"build_atlas: partition supports fail to cover (margin {margin:.3e})"
        )
    atlas.coverage_margin = margin
    return atlas


def _coverage_probe(atlas, n=2048):
    if atlas.manifold == "circle":
        return np.linspace(0.0, TWO_PI, n, endpoint=False)[:, None]
    m = int(np.sqrt(n)) + 1
    th = np.linspace(0.0, TWO_PI, m, endpoint=False)
    U, V = np.meshgrid(th, th, indexing="ij")
    return np.column_stack([U.ravel(), V.ravel()])


# ------------------------------------------------------------ families


@dataclass
class ManifoldFamily:
    """Closed-form metric family in manifold coordinates (angles)."""

    manifold: str
    evaluator: callable  # (points (m,d), t) -> (m, comps)
    horizon: float
    samples: int
    name: str = ""

    @property
    def t_grid(self):
        return np.linspace(0.0, self.horizon, self.samples + 1)


def _base_components(manifold):
    # pullback of the shipped base embeddings: d(theta)^2 on the circle,
    # the flat [[2,1],[1,2]] metric on the hexagonal torus
    return np.array([1.0]) if manifold == "circle" else np.array([2.0, 1.0, 2.0])


def build_manifold_family(name, manifold, beta=0.05, horizon=1.0, samples=8) -> ManifoldFamily:
    """Named global families: constant | uniform-scale | circle-breathing."""
    base = _base_components(manifold)
    if name == "constant":
        def evaluator(points, t):
            pts = np.atleast_2d(points)
            return np.broadcast_to(base, (pts.shape[0], base.size)).copy()
    elif name == "uniform-scale":
        def evaluator(points, t):
            pts = np.atleast_2d(points)
            return (1.0 + beta * t) * np.broadcast_to(base, (pts.shape[0], base.size))
    elif name == "circle-breathing":
        def evaluator(points, t):
            pts = np.atleast_2d(points)
            scale = 1.0 + beta * t * 0.5 * (1.0 + np.cos(pts[:, 0]))
            return scale[:, None] * base[None, :]
    else:
        raise ValueError(
            f"build_manifold_family: unknown family name {name!r}; expected "
            "constant, uniform-scale or circle-breathing"
        )
    if 1.0 + min(0.0, beta) * horizon <= 0.0:
        raise ValueError("build_manifold_family: family loses positivity")
    return ManifoldFamily(manifold, evaluator, float(horizon), int(samples), name)


@dataclass
class ChartIncrement:
    """Chart-local windowed metric increment in chart coordinates."""

    chart: AtlasChart
    evaluator: callable  # (X (m,d) chart coords, t) -> (m, comps)


def decompose_metric(atlas: Atlas, family: ManifoldFamily) -> list:
    """Split g(.,t) - g(.,0) into chart-local increments (chart coords).

    Each increment is psi_k * (g(.,t) - g(.,0)) pulled back through the
    chart map (every component picks up halfwidth^2 because the chart
    Jacobian is halfwidth times the identity).  Sum over charts
    reconstructs the manifold increment; every increment vanishes
    identically at t = 0.
    """
    incs = []
    for k, ch in enumerate(atlas.charts):
        def evaluator(X, t, _k=k, _ch=ch):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            pts = _ch.to_manifold(X)
            psi = atlas.partition(pts)[_k]
            delta = family.evaluator(pts, t) - family.evaluator(pts, 0.0)
            return (_ch.halfwidth**2) * psi[:, None] * delta

        incs.append(ChartIncrement(ch, evaluator))
    return incs


# ------------------------------------------------------------ global mesh


def make_mesh(manifold, mesh):
    """Uniform periodic mesh in manifold angles: (npts, d) points."""
    th = np.linspace(0.0, TWO_PI, mesh, endpoint=False)
    if manifold == "circle":
        return th[:, None]
    U, V = np.meshgrid(th, th, indexing="ij")
    return np.column_stack([U.ravel(), V.ravel()])


def _interp_circle(mesh_theta, values, theta_eval):
    ext_x = np.append(mesh_theta, mesh_theta[0] + TWO_PI)
    ext_v = np.concatenate([values, values[:1]], axis=0)
    cs = CubicSpline(ext_x, ext_v, bc_type="periodic", axis=0)
    wrapped = np.mod(theta_eval - mesh_theta[0], TWO_PI) + mesh_theta[0]
    return cs(wrapped)


def _interp_torus(mesh_theta, values_grid, points):
    # values_grid: (M, M, q); periodic pad one row/column
    m = mesh_theta.size
    ext = np.empty((m + 1, m + 1) + values_grid.shape[2:])
    ext[:m, :m] = values_grid
    ext[m, :m] = values_grid[0]
    ext[:m, m] = values_grid[:, 0]
    ext[m, m] = values_grid[0, 0]
    axes = np.append(mesh_theta, mesh_theta[0] + TWO_PI)
    rgi = RegularGridInterpolator((axes, axes), ext, method="cubic")
    wrapped = np.mod(points - mesh_theta[0], TWO_PI) + mesh_theta[0]
    return rgi(wrapped)


@dataclass
class GlobalSolution:
    atlas: Atlas
    family: ManifoldFamily
    t_grid: np.ndarray
    mesh_points: np.ndarray  # (npts, d)
    mesh: int
    F_stages: list  # per stage 0..m: array (K+1, npts, q)
    stage_traces: list  # per stage 1..m: list over t of IterationTrace
    stage_margins: list  # per stage 1..m: list over t of (margin, eps_free)
    horizon_used: float
    chart_resolution: int
    q: int

    @property
    def F(self):
        return self.F_stages[-1]

    def write_csv(self, path):
        """Rows: stage, t, mesh angles, embedding components."""
        coord_names = ("theta", "phi")[: self.mesh_points.shape[1]]
        write_embedding_csv(path, self.mesh_points, self.F_stages, self.t_grid, coord_names)


def write_embedding_csv(path, coords, stages, t_values, coord_names):
    """Write embedding paths in the exchange schema stage,t,<coords>,F1..Fq.

    coords is (npts, d); stages[s][k] is the (npts, q) embedding of stage s
    at time t_values[k].  Every float is written as its repr (the shortest
    string that round-trips), one (stage, t) block at a time.
    """
    q = np.shape(stages[0][0])[1]
    header = ["stage", "t", *coord_names] + [f"F{j + 1}" for j in range(q)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for stage, per_t in enumerate(stages):
            for t, vals in zip(t_values, per_t):
                row = f"{stage},{float(t)!r}," + ",".join(["%r"] * (len(header) - 2)) + "\n"
                block = np.column_stack([coords, vals]).tolist()
                fh.writelines(row % tuple(values) for values in block)


def _chart_mesh_mask(chart, mesh_points, radius):
    delta = _wrap(mesh_points - chart.center[None, :])
    r = np.sqrt((delta**2).sum(axis=1)) / chart.halfwidth
    return r < radius, delta / chart.halfwidth


def glue_solve(F0, family: ManifoldFamily, atlas: Atlas, chart_resolution=801,
               mesh=2048, config: IterationConfig = None,
               cutoff_radii=(0.85, 0.985), dt_min=1e-3) -> GlobalSolution:
    """Sequential chart-by-chart gluing of a global metric family.

    F0: callable mapping manifold angle points (npts, d) -> (npts, q).
    Stage i solves the chart-i increment on the chart grid around the
    stage-(i-1) embedding (frame rebuilt from interpolated values at every
    time sample for i >= 2) and adds the transported update only at mesh
    points inside chart i.  Any smallness/stall failure halves the global
    horizon and restarts the whole pipeline; freeness loss raises
    StageFailure with the stage index.
    """
    d = atlas.dim
    pts = make_mesh(atlas.manifold, mesh)
    th = np.linspace(0.0, TWO_PI, mesh, endpoint=False)
    F0_mesh = np.asarray(F0(pts), dtype=float)
    q = F0_mesh.shape[1]
    g_chart = make_grid(d, chart_resolution)
    cut = Cutoff(g_chart, *cutoff_radii)
    a2 = cut.values**2
    increments = decompose_metric(atlas, family)
    atlas.partition(pts)  # raises early if the mesh is not covered

    def run_pass(ts):
        F_prev = np.repeat(F0_mesh[None, :, :], len(ts), axis=0)
        F_stages = [F_prev]
        stage_traces, stage_margins = [], []
        for i, inc in enumerate(increments, start=1):
            ch = inc.chart
            inside, chart_xy = _chart_mesh_mask(ch, pts, cutoff_radii[1])
            F_new = F_prev.copy()
            traces_i, margins_i = [], []
            for k, t in enumerate(ts):
                if i == 1:
                    chart_vals = np.asarray(
                        F0(ch.to_manifold(g_chart.coords)), dtype=float
                    )
                elif d == 1:
                    chart_vals = _interp_circle(
                        th, F_prev[k],
                        ch.to_manifold(g_chart.coords)[:, 0],
                    )
                else:
                    grid_vals = F_prev[k].reshape(mesh, mesh, q)
                    chart_vals = _interp_torus(
                        th, grid_vals, ch.to_manifold(g_chart.coords)
                    )
                try:
                    frame = build_frame(VecField(g_chart, chart_vals))
                except NotFreeError as exc:
                    raise StageFailure(
                        f"stage {i} lost freeness at t={t}: {exc}", stage=i, t=t
                    ) from exc
                f = SymTensorField(g_chart, inc.evaluator(g_chart.coords, t))
                v, trace = solve_fixed_point(frame, cut, f, config)
                u_chart = a2[:, None] * v.values
                if np.any(u_chart):
                    u_mesh = _transport_update(
                        g_chart, u_chart, chart_xy[inside], d, cutoff_radii[1]
                    )
                    F_new[k][inside] += u_mesh
                traces_i.append(trace)
                margins_i.append(
                    (frame.freeness_margin, freeness_threshold(frame))
                )
            stage_traces.append(traces_i)
            stage_margins.append(margins_i)
            F_prev = F_new
            F_stages.append(F_prev)
        return GlobalSolution(
            atlas, family, ts, pts, mesh, F_stages, stage_traces, stage_margins,
            float(ts[-1]), chart_resolution, q,
        )

    return adaptive_horizon(run_pass, family.horizon, family.samples, dt_min)


def _transport_update(g_chart, u_chart, chart_pts, d, support):
    """Interpolate the chart update at mesh points; exact zero at the rim."""
    if d == 1:
        x = g_chart.coords[:, 0]
        cs = CubicSpline(x, u_chart, axis=0)
        out = cs(chart_pts[:, 0])
    else:
        n = g_chart.resolution
        axis = np.linspace(-1.0, 1.0, n)
        lat = np.stack(
            [g_chart.to_lattice(u_chart[:, c], fill=0.0) for c in range(u_chart.shape[1])],
            axis=-1,
        )
        rgi = RegularGridInterpolator((axis, axis), lat, method="cubic",
                                      bounds_error=False, fill_value=0.0)
        out = rgi(chart_pts)
    r = np.sqrt((np.atleast_2d(chart_pts) ** 2).sum(axis=1))
    out[r >= support] = 0.0
    return out


# ------------------------------------------------------------ oracle


def pullback_residual(F, points, family: ManifoldFamily, t, atlas: Atlas = None,
                      upto_stage: int = None):
    """Independent global isometry check on the periodic mesh.

    max over mesh points and index pairs of |d_iF . d_jF - g_ij(., t)|,
    with fourth-order periodic stencils in the manifold angles (never the
    solver's own operators).  With atlas/upto_stage the target is the
    partial metric g(., 0) + sum_{j <= upto_stage} psi_j (g(., t) - g(., 0)).
    """
    F = np.asarray(F, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    npts = pts.shape[0]
    target = family.evaluator(pts, t)
    if upto_stage is not None:
        if atlas is None:
            raise ValueError("pullback_residual: upto_stage needs the atlas")
        psi = atlas.partition(pts)
        delta = family.evaluator(pts, t) - family.evaluator(pts, 0.0)
        covered = psi[:upto_stage].sum(axis=0)
        target = family.evaluator(pts, 0.0) + covered[:, None] * delta
    if family.manifold == "circle":
        h = TWO_PI / npts
        dF = periodic_derivative(F, h, 1)
        pull = (dF * dF).sum(axis=1, keepdims=True)
    else:
        m = int(round(np.sqrt(npts)))
        h = TWO_PI / m
        Fg = F.reshape(m, m, -1)
        du = periodic_derivative(Fg, h, 1, axis=0)
        dv = periodic_derivative(Fg, h, 1, axis=1)
        pull = np.stack(
            [
                (du * du).sum(axis=2).ravel(),
                (du * dv).sum(axis=2).ravel(),
                (dv * dv).sum(axis=2).ravel(),
            ],
            axis=1,
        )
    return float(np.max(np.abs(pull - target)))


def solution_residuals(solution: GlobalSolution, stage: int = None):
    """Per-sample pullback residuals of a stage (default: final stage)."""
    nstages = len(solution.F_stages) - 1
    stage = nstages if stage is None else stage
    upto = None if stage == nstages else stage
    return [
        pullback_residual(
            solution.F_stages[stage][k], solution.mesh_points, solution.family,
            t, atlas=solution.atlas, upto_stage=upto,
        )
        for k, t in enumerate(solution.t_grid)
    ]
