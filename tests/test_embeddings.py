"""The phase tables reproduce the closed forms they replaced, bit for bit.

The reference below is the hand-written code each shape had before the
phase tables: one embedding function per manifold, a typed-in table of
base metrics, the periodic mesh, and analytic d1/d2 rows per chart.  Every
output of the tables, and the frame rows built from them, must equal it
byte for byte.
"""

import numpy as np
import pytest

from isoperturb.embeddings import (
    BASE_METRICS,
    CircleChart,
    ParabolaChart,
    TorusChart,
    base_embedding,
    make_mesh,
)
from isoperturb.frame import frame_matrix
from isoperturb.grid import make_grid, multi_indices, sym_indices


# -------------------------------------------------------------- the reference

REFERENCE_METRICS = {"circle": np.array([1.0]), "torus": np.array([2.0, 1.0, 2.0])}


def circle_embedding(points):
    th = np.asarray(points, dtype=float).reshape(-1)
    return np.column_stack([np.cos(th), np.sin(th)])


def torus_embedding(points):
    pts = np.asarray(points, dtype=float)
    u, v = pts[:, 0], pts[:, 1]
    s = u + v
    return np.column_stack(
        [np.cos(u), np.sin(u), np.cos(v), np.sin(v), np.cos(s), np.sin(s)]
    )


def circle_d1(chart, grid):
    th = chart.angles(grid)[:, 0]
    c = chart.halfwidth
    return np.column_stack([-c * np.sin(th), c * np.cos(th)])


def circle_d2(chart, grid):
    th = chart.angles(grid)[:, 0]
    c2 = chart.halfwidth**2
    return np.column_stack([-c2 * np.cos(th), -c2 * np.sin(th)])


def torus_d1(chart, grid, axis):
    u, v = chart.angles(grid).T
    s = u + v
    c = chart.halfwidth
    z = np.zeros_like(u)
    if axis == 0:
        cols = [-c * np.sin(u), c * np.cos(u), z, z, -c * np.sin(s), c * np.cos(s)]
    else:
        cols = [z, z, -c * np.sin(v), c * np.cos(v), -c * np.sin(s), c * np.cos(s)]
    return np.column_stack(cols)


def torus_d2(chart, grid, i, j):
    u, v = chart.angles(grid).T
    s = u + v
    c2 = chart.halfwidth**2
    z = np.zeros_like(u)
    tail = [-c2 * np.cos(s), -c2 * np.sin(s)]
    if i == 0 and j == 0:
        cols = [-c2 * np.cos(u), -c2 * np.sin(u), z, z] + tail
    elif i == 1 and j == 1:
        cols = [z, z, -c2 * np.cos(v), -c2 * np.sin(v)] + tail
    else:
        cols = [z, z, z, z] + tail
    return np.column_stack(cols)


def parabola_d1(grid):
    x = grid.coords[:, 0]
    return np.column_stack([np.ones_like(x), 2.0 * x])


def parabola_d2(grid):
    x = grid.coords[:, 0]
    return np.column_stack([np.zeros_like(x), np.full_like(x, 2.0)])


# ------------------------------------------------------------------ the tests


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_base_metrics_are_the_typed_in_ones():
    assert BASE_METRICS.keys() == REFERENCE_METRICS.keys()
    for name, want in REFERENCE_METRICS.items():
        assert _same(BASE_METRICS[name], want), name


def _charts(rng, chart_type, count):
    """The default chart and count - 1 charts of random center and halfwidth."""
    charts = [chart_type()]
    for _ in range(count - 1):
        center = rng.uniform(-7.0, 7.0, chart_type.dim)
        charts.append(chart_type(center, rng.uniform(0.05, 3.1)))
    return charts


@pytest.mark.parametrize("resolution", [17, 101, 401, 801])
def test_circle_chart_is_the_hand_written_one(resolution):
    g = make_grid(1, resolution)
    for chart in _charts(np.random.default_rng(resolution), CircleChart, 4):
        assert _same(chart.evaluate(g), circle_embedding(chart.angles(g)))
        assert _same(chart.derivative(g, (1,)), circle_d1(chart, g))
        assert _same(chart.derivative(g, (2,)), circle_d2(chart, g))
        want = np.tile(chart.halfwidth**2 * REFERENCE_METRICS["circle"], (g.num_nodes, 1))
        assert _same(chart.base_metric(g), want)
        rows = [circle_d1(chart, g), circle_d2(chart, g)]
        assert _same(frame_matrix(chart, g)[1], np.stack(rows, axis=1))
    assert (CircleChart.q, CircleChart.dim) == (2, 1)


@pytest.mark.parametrize("resolution", [17, 33, 65])
def test_torus_chart_is_the_hand_written_one(resolution):
    g = make_grid(2, resolution)
    for chart in _charts(np.random.default_rng(resolution), TorusChart, 4):
        assert _same(chart.evaluate(g), torus_embedding(chart.angles(g)))
        for axis, s in enumerate(multi_indices(2, 1)):
            assert _same(chart.derivative(g, s), torus_d1(chart, g, axis)), s
        for (i, j), s in zip(sym_indices(2), multi_indices(2, 2)):
            assert _same(chart.derivative(g, s), torus_d2(chart, g, i, j)), s
        want = np.tile(chart.halfwidth**2 * REFERENCE_METRICS["torus"], (g.num_nodes, 1))
        assert _same(chart.base_metric(g), want)
        rows = [torus_d1(chart, g, axis) for axis in range(2)]
        rows += [torus_d2(chart, g, i, j) for i, j in sym_indices(2)]
        assert _same(frame_matrix(chart, g)[1], np.stack(rows, axis=1))
    assert (TorusChart.q, TorusChart.dim) == (6, 2)


def test_parabola_rows_are_the_hand_written_ones():
    g = make_grid(1, 201)
    assert _same(ParabolaChart().derivative(g, (1,)), parabola_d1(g))
    assert _same(ParabolaChart().derivative(g, (2,)), parabola_d2(g))
    rows = [parabola_d1(g), parabola_d2(g)]
    assert _same(frame_matrix(ParabolaChart(), g)[1], np.stack(rows, axis=1))


def reference_mesh(manifold, mesh):
    th = np.linspace(0.0, 2.0 * np.pi, mesh, endpoint=False)
    if manifold == "circle":
        return th[:, None]
    U, V = np.meshgrid(th, th, indexing="ij")
    return np.column_stack([U.ravel(), V.ravel()])


@pytest.mark.parametrize("manifold,meshes,reference", [
    ("circle", (16, 64, 512, 2048), circle_embedding),
    ("torus", (16, 46, 48, 96), torus_embedding)])
def test_mesh_embeddings_are_the_hand_written_ones(manifold, meshes, reference):
    for mesh in meshes:
        pts = make_mesh(manifold, mesh)
        assert _same(pts, reference_mesh(manifold, mesh))
        assert _same(base_embedding(manifold, pts), reference(pts))
