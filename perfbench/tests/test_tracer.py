import math

import numpy as np
import pytest

import tracer
from tracer import Span, Tracer, layer_metrics, self_times

from isoperturb import atlas, family, fixedpoint, grid
from isoperturb.grid import Grid


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("c1", 1.0, 5.0, parent=0),
        Span("c2", 3.0, 6.0, parent=0),  # overlaps c1: covered 1..6
        Span("c3", 8.0, 12.0, parent=0),  # runs past the parent: clipped to 8..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_wrappers_patch_every_importing_module_and_are_restored():
    originals = {
        "solve": fixedpoint.solve_fixed_point,
        "holder": grid.holder_norm,
        "qmax": Grid.quotient_max,
    }
    with Tracer() as tr:
        for mod in (fixedpoint, family, atlas):
            assert mod.solve_fixed_point is not originals["solve"]
        assert family.solve_fixed_point is atlas.solve_fixed_point
        assert fixedpoint.holder_norm is not originals["holder"]
        assert Grid.quotient_max is not originals["qmax"]
        g = grid.make_grid(1, 33)
        grid.holder_norm(grid.ScalarField(g, np.sin(g.coords[:, 0])), 1, 0.5)
    assert tr.missing == []
    for mod in (fixedpoint, family, atlas):
        assert mod.solve_fixed_point is originals["solve"]
    for mod in (grid, fixedpoint, family):
        assert mod.holder_norm is originals["holder"]
    assert Grid.quotient_max is originals["qmax"]
    names = [s.name for s in tr.spans]
    assert names[0] == "grid.make_grid"
    assert names.count("grid.holder_norm") == 1
    # C^{1,alpha} of a scalar: the function and its first derivative
    assert names.count("grid.quotient_max") == 2
    holder = names.index("grid.holder_norm")
    assert all(s.parent == holder for s in tr.spans if s.name == "grid.quotient_max")


def test_missing_target_is_reported_and_the_rest_still_traced():
    targets = tracer.TARGETS + (("grid.gone", "isoperturb.grid", "no_such_function"),
                                ("nomod.gone", "isoperturb.no_such_module", "f"))
    with Tracer(targets) as tr:
        grid.make_grid(1, 17)
    assert tr.missing == ["grid.gone", "nomod.gone"]
    assert [s.name for s in tr.spans] == ["grid.make_grid"]


def test_raising_call_records_error_and_unwinds():
    with Tracer() as tr:
        with pytest.raises(ValueError):
            grid.make_grid(3, 33)
        grid.make_grid(1, 17)
    assert [(s.name, s.error, s.parent) for s in tr.spans] == [
        ("grid.make_grid", "ValueError", -1),
        ("grid.make_grid", "", -1),
    ]
    assert all(not math.isnan(s.end) for s in tr.spans)


def test_halvings_and_discarded_solves_are_attributed_to_their_loop():
    solve = "fixedpoint.solve_fixed_point"
    spans = [
        Span("atlas.glue_solve", 0.0, 10.0, attrs={"kept": 2}),
        Span(solve, 1.0, 2.0, parent=0, attrs={"iterations": 4}),
        Span(solve, 2.0, 5.0, parent=0, error="StalledIteration", attrs={"iterations": 60}),
        Span("frame.build_frame", 5.0, 6.0, parent=0),
        Span(solve, 6.0, 7.0, parent=0, attrs={"iterations": 4}),
        Span(solve, 7.0, 8.0, parent=0, attrs={"iterations": 5}),
    ]
    m = layer_metrics(spans)
    assert m["fixedpoint.solves"] == 4
    assert m["fixedpoint.iterations"] == 73
    assert m["fixedpoint.failed"] == 1
    assert m["atlas.halvings"] == 1
    assert m["atlas.solves_discarded"] == 2
    assert m["atlas.useful_ratio"] == pytest.approx(0.5)
    assert m["family.halvings"] == 0 and m["family.useful_ratio"] == 1.0
    assert m["atlas.glue.self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert m["fixedpoint.solve_s"] == pytest.approx(6.0)
