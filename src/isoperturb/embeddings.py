"""Base embeddings used as free starting maps.

Each chart object evaluates the embedding and its first/second parameter
derivatives analytically on a grid, plus the metric it induces.  Charts map
the reference domain (interval/disk of radius 1) into the manifold:

  ParabolaChart   x -> (x, x^2)                      open-curve demo chart
  CircleChart     x -> (cos(c x + t0), sin(c x + t0))  arc of the unit circle
  TorusChart      (x,y) -> R^6 product-of-phases map   torus patch

The circle/torus charts carry a `halfwidth` c: the chart coordinate is
scaled so the domain radius 1 covers an angular radius c, and induced
metrics pick up the corresponding c factors.
"""

import numpy as np

from .grid import Grid, SymTensorField, VecField


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


class ParabolaChart:
    """Plane curve (x, x^2); simplest free start for interval problems."""

    q = 2

    def angles(self, grid: Grid):
        return grid.coords[:, 0]

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


class CircleChart:
    """Arc of the unit circle: x -> (cos, sin)(center + halfwidth * x)."""

    q = 2

    def __init__(self, center=0.0, halfwidth=3.0 * np.pi / 4.0):
        if not (0.0 < halfwidth < np.pi):
            raise ValueError(f"CircleChart: halfwidth must be in (0, pi), got {halfwidth}")
        self.center = float(center)
        self.halfwidth = float(halfwidth)

    def angles(self, grid_or_x):
        x = grid_or_x.coords[:, 0] if isinstance(grid_or_x, Grid) else np.asarray(grid_or_x)
        return self.center + self.halfwidth * x

    def evaluate(self, grid: Grid) -> VecField:
        return VecField(grid, circle_embedding(self.angles(grid)))

    def d1(self, grid: Grid, axis=0):
        th = self.angles(grid)
        c = self.halfwidth
        return np.column_stack([-c * np.sin(th), c * np.cos(th)])

    def d2(self, grid: Grid, i=0, j=0):
        th = self.angles(grid)
        c2 = self.halfwidth**2
        return np.column_stack([-c2 * np.cos(th), -c2 * np.sin(th)])

    def base_metric(self, grid: Grid) -> SymTensorField:
        vals = np.full((grid.num_nodes, 1), self.halfwidth**2)
        return SymTensorField(grid, vals)


class TorusChart:
    """Torus patch into R^6: phases (u, v, u+v) with u,v = center + c*(x,y).

    The product-of-circles map is NOT free (its mixed second derivative
    vanishes identically); adding the coupled phase u+v restores a full
    rank-5 derivative row set everywhere.
    """

    q = 6

    def __init__(self, center=(0.0, 0.0), halfwidth=3.0):
        if not (0.0 < halfwidth < np.pi):
            raise ValueError(f"TorusChart: halfwidth must be in (0, pi), got {halfwidth}")
        self.center = (float(center[0]), float(center[1]))
        self.halfwidth = float(halfwidth)

    def angles(self, grid_or_xy):
        if isinstance(grid_or_xy, Grid):
            xy = grid_or_xy.coords
        else:
            xy = np.asarray(grid_or_xy)
        u = self.center[0] + self.halfwidth * xy[:, 0]
        v = self.center[1] + self.halfwidth * xy[:, 1]
        return u, v

    def evaluate(self, grid: Grid) -> VecField:
        return VecField(grid, torus_embedding(np.column_stack(self.angles(grid))))

    def d1(self, grid: Grid, axis=0):
        u, v = self.angles(grid)
        s = u + v
        c = self.halfwidth
        z = np.zeros_like(u)
        if axis == 0:
            cols = [-c * np.sin(u), c * np.cos(u), z, z, -c * np.sin(s), c * np.cos(s)]
        else:
            cols = [z, z, -c * np.sin(v), c * np.cos(v), -c * np.sin(s), c * np.cos(s)]
        return np.column_stack(cols)

    def d2(self, grid: Grid, i=0, j=0):
        u, v = self.angles(grid)
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

    def base_metric(self, grid: Grid) -> SymTensorField:
        c2 = self.halfwidth**2
        n = grid.num_nodes
        # components ordered (0,0), (0,1), (1,1)
        vals = np.column_stack(
            [np.full(n, 2.0 * c2), np.full(n, 1.0 * c2), np.full(n, 2.0 * c2)]
        )
        return SymTensorField(grid, vals)
