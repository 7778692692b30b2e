"""Chart atlases and sequential gluing on the circle and the flat torus.

A global metric change g(.,t) - g(.,0) is split by a partition of unity
into chart-local increments, and the perturbation solve runs chart by
chart: stage i perturbs the stage i-1 embedding only inside chart i
(bit-identical outside), rebuilding the derivative frame from the current
embedding at every time sample (stage 1 reads the manifold's base
embedding, whose one frame is built up front) and solving the largest t
first.  The charts are the analytic CircleChart/TorusChart of
embeddings.py, and the base embedding is the manifold's
embeddings.base_embedding.  The final pullback is checked by a
solver-independent periodic finite-difference oracle on the global mesh.
"""

from dataclasses import dataclass, field

import numpy as np

from .embeddings import TWO_PI, CircleChart, TorusChart, base_embedding, make_mesh
from .family import MetricFamily, adaptive_horizon, locate_failure
from .family import build_manifold_family  # noqa: F401  (perfbench's oracle reads it here)
from .fixedpoint import IterationConfig, solve_fixed_point
from .frame import NotFreeError, build_frame
from .grid import make_grid, sym_indices
from .operators import Cutoff, radial_window
from .spline import cubic_spline
from .verify import periodic_derivative


# partition bumps are 1 inside radius PSI_FLAT and 0 from PSI_SUPP on (in
# chart units); a glue cutoff must be flat over the partition support
PSI_FLAT, PSI_SUPP = 0.45, 0.82
GLUE_CUTOFF = (0.85, 0.985)


class StageFailure(RuntimeError):
    """A gluing stage lost freeness (or otherwise failed); carries the stage."""

    def __init__(self, message, stage):
        super().__init__(message)
        self.stage = int(stage)


@dataclass
class Atlas:
    manifold: str
    charts: list

    def bump(self, k, points):
        """Chart-k partition bump: 1 inside PSI_FLAT, 0 outside PSI_SUPP."""
        r = self.charts[k].radius(points)
        return radial_window(r, PSI_FLAT, PSI_SUPP)

    def partition(self, points):
        """psi_k(points) for all charts, rows summing to 1 (up to roundoff)."""
        bumps = np.stack([self.bump(k, points) for k in range(len(self.charts))])
        total = bumps.sum(axis=0)
        if np.any(total <= 0.0):
            raise ValueError("atlas partition: charts fail to cover a probe point")
        return bumps / total[None, :]


def build_atlas(manifold, num_charts) -> Atlas:
    """Equispaced-center atlas with a normalized-bump partition of unity.

    circle: num_charts >= 2 arcs of halfwidth 1.5*pi/num_charts;
    torus: exactly 4 charts (disks of angular radius 3.0 centered on
    {0, pi}^2) — fewer cannot cover with the required overlap margin.
    """
    if manifold == "circle":
        if num_charts < 2:
            raise ValueError(
                f"build_atlas: the circle needs at least 2 charts, got {num_charts}"
            )
        halfwidth = 1.5 * np.pi / num_charts
        charts = [CircleChart(TWO_PI * k / num_charts, halfwidth) for k in range(num_charts)]
    elif manifold == "torus":
        if num_charts != 4:
            raise ValueError(
                f"build_atlas: cannot cover the torus with the required overlap "
                f"margin using {num_charts} charts; 4 are needed (centers on "
                "{0, pi}^2)"
            )
        charts = [TorusChart(center, 3.0)
                  for center in [(0.0, 0.0), (np.pi, 0.0), (0.0, np.pi), (np.pi, np.pi)]]
    else:
        raise ValueError(f"build_atlas: unknown manifold {manifold!r}")
    atlas = Atlas(manifold, charts)
    probe = make_mesh(manifold, 2048 if manifold == "circle" else 46)
    atlas.partition(probe)  # raises if a probe point is not covered
    return atlas


# ------------------------------------------------------------ decomposition


def decompose_metric(atlas: Atlas, family: MetricFamily) -> list:
    """Split g(.,t) - g(.,0) into chart-local increments (chart coords).

    Returns one evaluator (X (m, d) chart coords, t) -> (m, comps) per
    atlas.charts[k].  Each increment is psi_k * (g(.,t) - g(.,0)) pulled
    back through the chart map (every component picks up halfwidth^2
    because the chart Jacobian is halfwidth times the identity).  Sum over
    charts reconstructs the manifold increment; every increment vanishes
    identically at t = 0.
    """
    evaluators = []
    for k, ch in enumerate(atlas.charts):
        def evaluator(X, t, _k=k, _ch=ch):
            pts = _ch.to_manifold(X)
            psi = atlas.partition(pts)[_k]
            delta = family.evaluator(pts, t) - family.evaluator(pts, 0.0)
            with np.errstate(over="ignore", invalid="ignore"):  # an inf or 0 * inf: the solve refuses it
                return (_ch.halfwidth**2) * psi[:, None] * delta

        evaluators.append(evaluator)
    return evaluators


# ------------------------------------------------------------ global mesh


def _spline(axes, values, targets, bc_type):
    """Tensor cubic spline of values on the grid `axes`, evaluated on the grid
    `targets`: one cubic_spline pass per axis, which between tensor grids is
    the tensor-product spline itself (each pass is an exact banded solve)."""
    for ax, (x, t) in enumerate(zip(axes, targets)):
        values = cubic_spline(x, values, bc_type, axis=ax)(t)
    return values


@dataclass
class GlobalSolution:
    atlas: Atlas
    family: MetricFamily
    t_grid: np.ndarray
    mesh_points: np.ndarray  # (npts, d)
    F_stages: list  # per stage 0..m: array (K+1, npts, q)
    stage_traces: list  # per stage 1..m: list over t of IterationTrace
    stage_margins: list  # per stage 1..m: list over t of (margin, eps_free)
    horizon_used: float
    halvings: list = field(default_factory=list)  # see family.adaptive_horizon

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
    string that round-trips).  A stage leaves most rows of the one before
    it untouched, so each block of rows is compared bit for bit with its
    reference block: stage s - 1 at the same t for s >= 1, and stage 0 at
    the first t for the other stage-0 blocks.  A row whose bits equal its
    reference's reuses that line's text; the floats of the other rows are
    formatted once per distinct bit pattern in the block.  Bits, not float
    equality, tell rows and values apart: 0.0 == -0.0, but their reprs
    differ.  Line texts are held only while a later block reads them.
    """
    q = np.shape(stages[0][0])[1]
    header = ["stage", "t", *coord_names] + [f"F{j + 1}" for j in range(q)]
    point_fmt = ",".join(["%r"] * len(coord_names)) + ","
    points = [point_fmt % tuple(p) for p in np.asarray(coords, dtype=float).tolist()]
    first = None  # stage 0 at the first t: (bits, lines)
    previous = []  # the previous stage's (bits, lines) per t, each dropped once read
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for stage, per_t in enumerate(stages):
            held = stage + 1 < len(stages)
            current = []
            for k, (t, vals) in enumerate(zip(t_values, per_t)):
                bits = np.ascontiguousarray(vals, dtype=float).view(np.uint64)
                if stage:
                    ref, previous[k] = previous[k], None
                else:
                    ref = first
                lines = _block_lines(points, bits, ref)
                prefix = f"{stage},{float(t)!r},"
                fh.write(prefix + ("\n" + prefix).join(lines) + "\n")
                if stage == 0 and k == 0:
                    first = (bits, lines)
                if held:
                    current.append((bits, lines))
            previous = current


def _block_lines(points, bits, ref):
    """Line texts (coordinates and F values, no stage or t) of one block of
    (npts, q) float bits, reusing the lines of ref = (bits, lines) where a
    row's bits are unchanged."""
    if ref is None:
        rows, lines = np.arange(bits.shape[0]), [None] * bits.shape[0]
    else:
        rows = np.flatnonzero((bits != ref[0]).any(axis=1))
        if rows.size == 0:
            return ref[1]
        lines = list(ref[1])
    values, inverse = np.unique(bits[rows], return_inverse=True)
    texts = np.array(list(map(repr, values.view(float).tolist())), dtype=object)
    for p, row in zip(rows.tolist(), texts[inverse.reshape(rows.size, -1)].tolist()):
        lines[p] = points[p] + ",".join(row)
    return lines


def glue_solve(family: MetricFamily, atlas: Atlas, chart_resolution=801,
               mesh=2048, config: IterationConfig = None,
               cutoff_radii=GLUE_CUTOFF) -> GlobalSolution:
    """Sequential chart-by-chart gluing of a global metric family.

    Stage 0 is the manifold's base embedding, base_embedding(atlas.manifold),
    on the mesh.  Stage i solves the chart-i increment on the chart grid
    around the stage-(i-1) embedding (frame rebuilt from interpolated
    values at every time sample for i >= 2; stage 1 has one frame, of
    atlas.charts[0].evaluate, for every pass and sample) and adds the
    transported update only at mesh points inside chart i.  Each stage solves its samples from the largest t down.  Any
    smallness/stall failure halves the global horizon and restarts the
    whole pipeline (see family.adaptive_horizon); freeness loss raises
    StageFailure with the stage index.
    """
    d = atlas.charts[0].dim
    pts = make_mesh(atlas.manifold, mesh)
    th = np.linspace(0.0, TWO_PI, mesh, endpoint=False)
    th_ext = np.append(th, TWO_PI)  # the mesh axis with its periodic end
    F0_mesh = base_embedding(atlas.manifold, pts)
    q = F0_mesh.shape[1]
    g_chart = make_grid(d, chart_resolution)
    nodes = tuple(g_chart.lattice_index.T)
    cut = Cutoff(g_chart, *cutoff_radii)
    a2 = cut.values**2
    increments = decompose_metric(atlas, family)
    atlas.partition(pts)  # raises early if the mesh is not covered
    try:
        first_frame = build_frame(atlas.charts[0].evaluate(g_chart), g_chart)
    except NotFreeError as exc:
        raise StageFailure(f"stage 1 lost freeness at t=0.0: {exc}", stage=1) from exc

    def run_pass(ts):
        F_prev = np.repeat(F0_mesh[None, :, :], len(ts), axis=0)
        F_stages = [F_prev]
        stage_traces, stage_margins = [], []
        for i, (ch, increment) in enumerate(zip(atlas.charts, increments), start=1):
            inside = ch.radius(pts) < cutoff_radii[1]
            # both transfers run between tensor grids: the chart lattice in
            # manifold angles, and the mesh axes in chart coordinates
            chart_th = [np.mod(c + ch.halfwidth * g_chart.axis, TWO_PI) for c in ch.center]
            mesh_x = ch.to_chart(np.column_stack([th] * d)).T
            # every frame first, in ascending t, up to a freeness loss; as in
            # an ascending pass, the loss is raised only if no earlier
            # sample fails its solve
            frames, lost = [], None
            for k, t in enumerate(ts):
                if i == 1:
                    frames.append(first_frame)
                    continue
                periodic = np.pad(F_prev[k].reshape((mesh,) * d + (q,)),
                                  [(0, 1)] * d + [(0, 0)], mode="wrap")
                chart_vals = _spline([th_ext] * d, periodic, chart_th, "periodic")
                try:
                    frames.append(build_frame(chart_vals[nodes], g_chart))
                except NotFreeError as exc:
                    lost = (t, exc)
                    break
            F_new = F_prev.copy()
            traces_i = [None] * len(frames)
            # the largest t first: its increment is the largest, and the
            # likeliest to fail the pass
            for k in reversed(range(len(frames))):
                f = increment(g_chart.coords, ts[k])
                with locate_failure(ts[k], stage=i):
                    v, traces_i[k] = solve_fixed_point(frames[k], cut, f, config)
                u_chart = a2[:, None] * v
                if np.any(u_chart):
                    u_mesh = _spline([g_chart.axis] * d, g_chart.to_lattice(u_chart),
                                     mesh_x, "not-a-knot")
                    F_new[k][inside] += u_mesh.reshape(-1, q)[inside]
            if lost is not None:
                t, exc = lost
                raise StageFailure(
                    f"stage {i} lost freeness at t={t}: {exc}", stage=i
                ) from exc
            stage_traces.append(traces_i)
            stage_margins.append([(fr.freeness_margin, fr.eps_free) for fr in frames])
            F_prev = F_new
            F_stages.append(F_prev)
        return GlobalSolution(
            atlas, family, ts, pts, F_stages, stage_traces, stage_margins, float(ts[-1]),
        )

    return adaptive_horizon(run_pass, family.horizon, family.samples)


# ------------------------------------------------------------ oracle


def pullback_residual(F, points, family: MetricFamily, t, atlas: Atlas = None,
                      upto_stage: int = None):
    """Independent global isometry check on the periodic mesh.

    max over mesh points and index pairs of |d_iF . d_jF - g_ij(., t)|,
    with fourth-order periodic stencils in the manifold angles (never the
    solver's own operators).  With atlas/upto_stage the target is the
    partial metric g(., 0) + sum_{j <= upto_stage} psi_j (g(., t) - g(., 0)).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    npts, d = pts.shape
    target = family.evaluator(pts, t)
    if upto_stage is not None:
        if atlas is None:
            raise ValueError("pullback_residual: upto_stage needs the atlas")
        psi = atlas.partition(pts)
        base = family.evaluator(pts, 0.0)
        covered = psi[:upto_stage].sum(axis=0)
        target = base + covered[:, None] * (target - base)
    m = int(round(npts ** (1.0 / d)))  # mesh points per axis
    F = np.asarray(F, dtype=float).reshape((m,) * d + (-1,))
    dF = [periodic_derivative(F, TWO_PI / m, 1, axis=a).reshape(npts, -1) for a in range(d)]
    pull = np.column_stack([(dF[i] * dF[j]).sum(axis=1) for i, j in sym_indices(d)])
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
