"""Base embeddings used as free starting maps.

Each chart object evaluates the embedding and its first/second parameter
derivatives analytically on a grid, plus the metric it induces.  Charts map
the reference domain (interval/disk of radius 1) into the manifold:

  ParabolaChart   x -> (x, x^2)                      open-curve demo chart
  CircleChart     x -> (cos(c x + t0), sin(c x + t0))  arc of the unit circle
  TorusChart      (x,y) -> R^6 product-of-phases map   torus patch

The circle/torus charts are AngleCharts: x -> center + c x into the
manifold's angles, followed by the manifold's base embedding (EMBEDDINGS).
The `halfwidth` c scales the chart coordinate so the domain radius 1 covers
an angular radius c, and induced metrics pick up the corresponding c
factors.  The same charts make up the atlases of atlas.py.
"""

import numpy as np

from .grid import Grid, SymTensorField, VecField


# circle and torus charts need a halfwidth in (0, MAX_HALFWIDTH)
MAX_HALFWIDTH = np.pi
# metric components, ordered (0,0), (0,1), (1,1), that the base embeddings
# induce in manifold angles: d(theta)^2 on the circle, the flat
# [[2,1],[1,2]] metric on the hexagonal torus
BASE_METRICS = {"circle": np.array([1.0]), "torus": np.array([2.0, 1.0, 2.0])}
TWO_PI = 2.0 * np.pi


def make_mesh(manifold, mesh):
    """Uniform periodic mesh in manifold angles: (npts, d) points."""
    th = np.linspace(0.0, TWO_PI, mesh, endpoint=False)
    if manifold == "circle":
        return th[:, None]
    U, V = np.meshgrid(th, th, indexing="ij")
    return np.column_stack([U.ravel(), V.ravel()])


def circle_embedding(points):
    """Unit circle: angles theta -> (cos theta, sin theta)."""
    th = np.asarray(points, dtype=float).reshape(-1)
    return np.column_stack([np.cos(th), np.sin(th)])


def torus_embedding(points):
    """Hexagonal flat torus into R^6: angles (u, v) -> phases of u, v and u+v."""
    pts = np.asarray(points, dtype=float)
    u, v = pts[:, 0], pts[:, 1]
    s = u + v
    return np.column_stack(
        [np.cos(u), np.sin(u), np.cos(v), np.sin(v), np.cos(s), np.sin(s)]
    )


# the base embedding of each manifold, on points in its angles
EMBEDDINGS = {"circle": circle_embedding, "torus": torus_embedding}


class ParabolaChart:
    """Plane curve (x, x^2); simplest free start for interval problems."""

    q = 2

    def angles(self, grid: Grid):
        return grid.coords

    def evaluate(self, grid: Grid) -> VecField:
        x = grid.coords[:, 0]
        return VecField(grid, np.column_stack([x, x * x]))

    def d1(self, grid: Grid, axis=0):
        x = grid.coords[:, 0]
        return np.column_stack([np.ones_like(x), 2.0 * x])

    def d2(self, grid: Grid, i=0, j=0):
        x = grid.coords[:, 0]
        return np.column_stack([np.zeros_like(x), np.full_like(x, 2.0)])

    def base_metric(self, grid: Grid) -> SymTensorField:
        x = grid.coords[:, 0]
        return SymTensorField(grid, (1.0 + 4.0 * x * x)[:, None])


class AngleChart:
    """A chart x -> center + halfwidth * x into the angles of a manifold.

    A subclass names its manifold (the key of EMBEDDINGS and BASE_METRICS),
    its dimension, its default halfwidth and its ambient dimension q, and
    supplies the analytic derivative rows d1/d2.
    """

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

    def evaluate(self, grid: Grid) -> VecField:
        return VecField(grid, EMBEDDINGS[self.manifold](self.angles(grid)))

    def base_metric(self, grid: Grid) -> SymTensorField:
        vals = self.halfwidth**2 * BASE_METRICS[self.manifold]
        return SymTensorField(grid, np.tile(vals, (grid.num_nodes, 1)))


class CircleChart(AngleChart):
    """Arc of the unit circle: x -> (cos, sin)(center + halfwidth * x)."""

    q, manifold, dim = 2, "circle", 1
    default_halfwidth = 3.0 * np.pi / 4.0

    def d1(self, grid: Grid, axis=0):
        th = self.angles(grid)[:, 0]
        c = self.halfwidth
        return np.column_stack([-c * np.sin(th), c * np.cos(th)])

    def d2(self, grid: Grid, i=0, j=0):
        th = self.angles(grid)[:, 0]
        c2 = self.halfwidth**2
        return np.column_stack([-c2 * np.cos(th), -c2 * np.sin(th)])


class TorusChart(AngleChart):
    """Torus patch into R^6: phases (u, v, u+v) with u,v = center + c*(x,y).

    The product-of-circles map is NOT free (its mixed second derivative
    vanishes identically); adding the coupled phase u+v restores a full
    rank-5 derivative row set everywhere.
    """

    q, manifold, dim = 6, "torus", 2
    default_halfwidth = 3.0

    def d1(self, grid: Grid, axis=0):
        u, v = self.angles(grid).T
        s = u + v
        c = self.halfwidth
        z = np.zeros_like(u)
        if axis == 0:
            cols = [-c * np.sin(u), c * np.cos(u), z, z, -c * np.sin(s), c * np.cos(s)]
        else:
            cols = [z, z, -c * np.sin(v), c * np.cos(v), -c * np.sin(s), c * np.cos(s)]
        return np.column_stack(cols)

    def d2(self, grid: Grid, i=0, j=0):
        u, v = self.angles(grid).T
        s = u + v
        c2 = self.halfwidth**2
        z = np.zeros_like(u)
        tail = [-c2 * np.cos(s), -c2 * np.sin(s)]
        if i == 0 and j == 0:
            cols = [-c2 * np.cos(u), -c2 * np.sin(u), z, z] + tail
        elif i == 1 and j == 1:
            cols = [z, z, -c2 * np.cos(v), -c2 * np.sin(v)] + tail
        else:
            cols = [z, z, z, z] + tail
        return np.column_stack(cols)
