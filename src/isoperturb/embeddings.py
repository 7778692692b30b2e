"""Base embeddings used as free starting maps, and the charts built on them.

Each manifold is one phase table in PHASES.  A phase is the sum of the
angles it lists, and the base embedding maps the angles to one (cos, sin)
pair per phase: theta -> (cos, sin)(theta) on the circle, and
(u, v) -> (cos, sin)(u, v, u + v) into R^6 on the hexagonal torus.  The
table also gives the dimension, the flat metric the embedding induces
(g_ij counts the phases that hold both i and j), the ambient dimension q
(two per phase) and every derivative.

Charts map the reference domain (interval/disk of radius 1) into R^q:

  ParabolaChart   x -> (x, x^2)                       open-curve demo chart
  CircleChart     arc of the unit circle
  TorusChart      torus patch

The circle/torus charts are AngleCharts: x -> center + c x into the
manifold's angles, followed by the base embedding.  The `halfwidth` c
scales the chart coordinate so the domain radius 1 covers an angular
radius c, and induced metrics and derivatives pick up the corresponding
c factors.  The same charts make up the atlases of atlas.py.
"""

import numpy as np

from .grid import Grid, sym_indices


# circle and torus charts need a halfwidth in (0, MAX_HALFWIDTH)
MAX_HALFWIDTH = np.pi
TWO_PI = 2.0 * np.pi
# the angles each phase sums.  The torus's product-of-circles phases u, v
# alone are NOT free (the mixed second derivative vanishes identically);
# the coupled phase u+v restores a full rank-5 derivative row set.
PHASES = {"circle": ((0,),), "torus": ((0,), (1,), (0, 1))}
DIMS = {name: 1 + max(map(max, phases)) for name, phases in PHASES.items()}
# metric components, ordered as sym_indices, that the base embeddings
# induce in manifold angles: d(theta)^2 on the circle, the flat
# [[2,1],[1,2]] metric on the hexagonal torus
BASE_METRICS = {
    name: np.array([float(sum(i in p and j in p for p in phases))
                    for i, j in sym_indices(DIMS[name])])
    for name, phases in PHASES.items()
}


def make_mesh(manifold, mesh):
    """Uniform periodic mesh in manifold angles: (npts, d) points."""
    th = np.linspace(0.0, TWO_PI, mesh, endpoint=False)
    axes = np.meshgrid(*[th] * DIMS[manifold], indexing="ij")
    return np.column_stack([a.ravel() for a in axes])


def base_embedding(manifold, points, s=()):
    """The manifold's base embedding at points (m, d) in its angles: one
    (cos, sin) pair per phase.

    With a multi-index s, its derivative D^s in the angles instead: per
    phase the |s|-th derivative of (cos, sin), or zero where s reads an
    angle the phase lacks.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, DIMS[manifold])
    cols = []
    for p in PHASES[manifold]:
        th = pts[:, list(p)].sum(axis=1)
        if any(k and a not in p for a, k in enumerate(s)):
            cols += [np.zeros_like(th)] * 2
            continue
        pair = (np.cos(th), np.sin(th))
        for _ in range(sum(s)):
            pair = (-pair[1], pair[0])
        cols += pair
    return np.column_stack(cols)


class ParabolaChart:
    """Plane curve (x, x^2); simplest free start for interval problems."""

    q, dim = 2, 1

    def angles(self, grid: Grid):
        return grid.coords

    def evaluate(self, grid: Grid):
        """The embedding at the nodes, (nodes, q)."""
        x = grid.coords[:, 0]
        return np.column_stack([x, x * x])

    def derivative(self, grid: Grid, s):
        """D^s of evaluate for s = (1,) or (2,)."""
        x = grid.coords[:, 0]
        if s == (1,):
            return np.column_stack([np.ones_like(x), 2.0 * x])
        return np.column_stack([np.zeros_like(x), np.full_like(x, 2.0)])

    def base_metric(self, grid: Grid):
        """The induced metric at the nodes, (nodes, n(n+1)/2)."""
        x = grid.coords[:, 0]
        return (1.0 + 4.0 * x * x)[:, None]


class AngleChart:
    """A chart x -> center + halfwidth * x into the angles of a manifold.

    A subclass names its manifold (a key of PHASES) and its default
    halfwidth; its dimension and its ambient dimension q come from the
    manifold's phases.
    """

    def __init_subclass__(cls):
        cls.q, cls.dim = 2 * len(PHASES[cls.manifold]), DIMS[cls.manifold]

    def __init__(self, center=0.0, halfwidth=None):
        halfwidth = self.default_halfwidth if halfwidth is None else halfwidth
        if not (0.0 < halfwidth < MAX_HALFWIDTH):
            raise ValueError(f"{type(self).__name__}: halfwidth must be in (0, pi), "
                             f"got {halfwidth}")
        self.center = np.zeros(self.dim) + center  # manifold angles, shape (d,)
        self.halfwidth = float(halfwidth)

    def to_manifold(self, X):
        """Chart coordinates (m, d) -> manifold angles (m, d)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.center[None, :] + self.halfwidth * X

    def angles(self, grid: Grid):
        return self.to_manifold(grid.coords)

    def _offset(self, points):
        """Manifold angles minus the center, wrapped to (-pi, pi]."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.mod(pts - self.center[None, :] + np.pi, TWO_PI) - np.pi

    def to_chart(self, points):
        """Manifold angles -> chart coordinates (points outside map to |x|>1)."""
        return self._offset(points) / self.halfwidth

    def radius(self, points):
        """Chart radius |to_chart(points)|, taken as |offset| / halfwidth."""
        return np.sqrt((self._offset(points) ** 2).sum(axis=1)) / self.halfwidth

    def evaluate(self, grid: Grid):
        return base_embedding(self.manifold, self.angles(grid))

    def derivative(self, grid: Grid, s):
        """D^s of evaluate: halfwidth^|s| times the angle derivative."""
        return self.halfwidth ** sum(s) * base_embedding(self.manifold, self.angles(grid), s)

    def base_metric(self, grid: Grid):
        vals = self.halfwidth**2 * BASE_METRICS[self.manifold]
        return np.tile(vals, (grid.num_nodes, 1))


class CircleChart(AngleChart):
    """Arc of the unit circle: x -> (cos, sin)(center + halfwidth * x)."""

    manifold = "circle"
    default_halfwidth = 3.0 * np.pi / 4.0


class TorusChart(AngleChart):
    """Torus patch into R^6: phases (u, v, u+v) with u,v = center + c*(x,y)."""

    manifold = "torus"
    default_halfwidth = 3.0


# every chart a scenario can name
CHARTS = {"parabola": ParabolaChart, "circle": CircleChart, "torus": TorusChart}
