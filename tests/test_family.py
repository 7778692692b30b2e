"""Time-family tests.

The windowed increment and the divided-difference probe both have exact
hand oracles (pinned window regions, IEEE x - x = 0, and polynomial-in-t
solution stacks whose divided differences are computable in closed form).
The solve path is checked on a calibrated breathing-bump scenario and on
forced horizon-halving / collapse runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoperturb import family as family_module
from isoperturb.embeddings import CircleChart, ParabolaChart, TorusChart
from isoperturb.family import (
    MAX_HALVINGS,
    FamilySolution,
    HorizonCollapse,
    adaptive_horizon,
    build_family,
    build_manifold_family,
    chart_window,
    positivity_margin,
    solve_family,
    stability_gap,
    time_regularity_probe,
    windowed_increment,
)
from isoperturb.fixedpoint import (IterationConfig, StalledIteration, bump_perturbation,
                                   solve_fixed_point)
from isoperturb.frame import build_frame
from isoperturb.grid import make_grid
from isoperturb.operators import Cutoff


CFG = IterationConfig(tol=1e-9)
# a unit-speed arc induces the flat metric: base components exactly 1
FLAT = CircleChart(0.0, 1.0)


# ---------------------------------------------------------------- window


def test_chart_window_pinned_regions():
    g = make_grid(1, 401)
    w = chart_window(g)
    r = g.radius()
    assert np.all(w[r <= 0.5] == 1.0)
    assert np.all(w[r >= 0.75] == 0.0)
    mid = (r > 0.5) & (r < 0.75)
    assert np.all((w[mid] > 0) & (w[mid] < 1))
    # radially monotone on the right half
    right = g.coords[:, 0] >= 0
    order = np.argsort(g.coords[right, 0])
    vals = w[right][order]
    assert np.all(np.diff(vals) <= 1e-15)


def test_window_validation_rejects_bad_profiles():
    g = make_grid(1, 201)
    fam = build_family("uniform-scale", g, base=FLAT, horizon=1.0, samples=4, beta=0.1)
    with pytest.raises(ValueError, match="exactly 1"):
        windowed_increment(chart_window(g, 0.4, 0.7), fam, 0.5)
    with pytest.raises(ValueError, match="inside radius 3/4"):
        windowed_increment(chart_window(g, 0.6, 0.8), fam, 0.5)


def test_windowed_increment_zero_at_t0_is_exact():
    g = make_grid(1, 401)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=4, beta=0.01, bump_radius=0.4)
    ghat = windowed_increment(chart_window(g), fam, 0.0)
    assert np.all(ghat == 0.0)  # IEEE: psi*(g - g) is exactly zero


def test_windowed_increment_hand_product():
    g = make_grid(1, 201)
    w = chart_window(g)
    fam = build_family("uniform-scale", g, base=ParabolaChart(), horizon=1.0,
                       samples=4, beta=0.2)
    t = 0.75
    base = ParabolaChart().base_metric(g)
    expected = w[:, None] * ((1.0 + 0.2 * t) * base - base)
    got = windowed_increment(w, fam, t)
    assert np.max(np.abs(got - expected)) == 0.0
    # support is pinned by the window
    assert np.all(got[g.radius() >= 0.75] == 0.0)


@settings(max_examples=20, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=0.5))
def test_windowed_increment_support_property(t):
    g = make_grid(1, 51)
    w = chart_window(g)
    fam = build_family("uniform-scale", g, base=FLAT, horizon=0.5, samples=2, beta=0.3)
    ghat = windowed_increment(w, fam, t)
    assert np.all(ghat[g.radius() >= 0.75] == 0.0)
    assert np.all(np.isfinite(ghat))
    expected = w * ((1.0 + 0.3 * t) - 1.0)
    assert np.max(np.abs(ghat[:, 0] - expected)) <= 1e-14


# ---------------------------------------------------------------- families


def test_constant_family_is_constant():
    g = make_grid(1, 101)
    fam = build_family("constant", g, base=FLAT, horizon=1.0, samples=3)
    assert np.all(fam.sample(0.7) == fam.sample(0.0))
    assert positivity_margin(fam, g.coords) == 1.0
    assert np.all(fam.t_grid == np.linspace(0.0, 1.0, 4))


def test_uniform_scale_values_and_margin():
    g = make_grid(1, 101)
    fam = build_family("uniform-scale", g, base=ParabolaChart(), horizon=1.0,
                       samples=4, beta=0.5)
    x = g.coords[:, 0]
    expected = (1.0 + 0.5 * 0.25) * (1.0 + 4.0 * x**2)
    assert np.max(np.abs(fam.sample(0.25)[:, 0] - expected)) == 0.0
    # min over t of min_x (1+beta*t)(1+4x^2) is at t=0, x=0
    assert positivity_margin(fam, g.coords) == 1.0


def test_bump_breathing_touches_only_first_component():
    g = make_grid(2, 33)
    fam = build_family("bump-breathing", g, base=TorusChart(), horizon=1.0, samples=2,
                       beta=0.3, bump_radius=0.4)
    g0 = fam.sample(0.0)
    g1 = fam.sample(1.0)
    assert np.all(g1[:, 1] == g0[:, 1])
    assert np.all(g1[:, 2] == g0[:, 2])
    r2 = (g.coords**2).sum(axis=1)
    prof = np.clip(1.0 - r2 / 0.4**2, 0.0, None) ** 4
    # g0 is the base itself (base + 0 * prof), and g1 adds the same product
    assert np.all(g1[:, 0] == g0[:, 0] + 0.3 * prof)


def test_circle_breathing_needs_circle_chart():
    g = make_grid(1, 101)
    chart = CircleChart()
    fam = build_family("circle-breathing", g, base=chart, horizon=1.0,
                       samples=2, beta=0.05)
    th = chart.angles(g)[:, 0]
    c2 = (0.75 * np.pi) ** 2
    expected = (1.0 + 0.05 * 1.0 * 0.5 * (1.0 + np.cos(th))) * c2
    assert np.max(np.abs(fam.sample(1.0)[:, 0] - expected)) < 1e-12


@pytest.mark.parametrize("name", ["constant", "uniform-scale", "circle-breathing"])
@pytest.mark.parametrize("chart,dim", [(CircleChart(0.3, 2.0), 1),
                                       (TorusChart((0.3, -1.0), 2.5), 2)])
def test_chart_and_global_families_agree(name, chart, dim):
    # a chart family is the global family at the chart's angles, pulled
    # back by the chart map x -> center + c x (a factor c^2)
    g = make_grid(dim, 101 if dim == 1 else 17)
    fam = build_family(name, g, base=chart, horizon=1.0, samples=2, beta=0.4)
    glob = build_manifold_family(name, "circle" if dim == 1 else "torus",
                                 beta=0.4, horizon=1.0, samples=2)
    pts = chart.angles(g)
    c2 = chart.halfwidth**2
    for t in (0.0, 0.5, 1.0):
        want = c2 * glob.evaluator(pts, t)
        got = fam.sample(t)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_family_validation():
    g = make_grid(1, 101)
    with pytest.raises(ValueError, match="unknown family"):
        build_family("wobble", g, FLAT)
    with pytest.raises(ValueError, match="samples"):
        build_family("constant", g, FLAT, samples=0)
    with pytest.raises(ValueError, match="horizon"):
        build_family("constant", g, FLAT, horizon=0.0)
    with pytest.raises(ValueError, match="positive definiteness"):
        build_family("bump-breathing", g, FLAT, horizon=1.0, samples=2, beta=-2.0,
                     bump_radius=0.4)
    # (1 - r^2/R^2)_+^-1 is inf outside the bump, and 0 * inf at t = 0 is
    # NaN: a NaN smallest eigenvalue is not > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="positive definiteness"):
            build_family("bump-breathing", g, base=ParabolaChart(), horizon=1.0,
                         samples=2, beta=0.01, bump_power=-1)


# ---------------------------------------------------------------- solves


BREATHING_GRID = make_grid(1, 401)


@pytest.fixture(scope="module")
def breathing_solution():
    g = BREATHING_GRID
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=4, beta=0.01, bump_radius=0.4)
    sol = solve_family(build_frame(ParabolaChart(), g), fam, chart_window(g),
                       cutoff=Cutoff(g, 0.5, 0.9), config=CFG)
    return sol


def test_breathing_solution_contract(breathing_solution):
    sol = breathing_solution
    assert sol.horizon_used == 0.5  # no halving at this amplitude
    assert np.all(sol.us[0] == 0.0)  # t=0 increment solves to zero
    assert max(sol.residuals) < 1e-7  # measured 2.96e-8 at N=401
    assert all(tr.status == "converged" for tr in sol.traces)
    assert all(tr.iterations <= 10 for tr in sol.traces)  # measured max 7
    for tr in sol.traces:
        assert all(x <= tr.bound * (1 + 1e-6) for x in tr.norms)
        assert tr.passes_recurrence_monitor()


def test_breathing_solution_residuals_grow_with_t(breathing_solution):
    res = breathing_solution.residuals
    assert res[0] == 0.0
    assert all(res[k] <= res[k + 1] + 1e-12 for k in range(len(res) - 1))


def test_regularity_probe_on_solution(breathing_solution):
    rep = time_regularity_probe(breathing_solution, BREATHING_GRID)
    for r in (1, 2):
        assert rep["orders"][r]["ratio"] <= 2.0
        assert np.isfinite(rep["orders"][r]["native"])


def test_horizon_halving_recovers():
    # amplitude far above the smallness threshold for the narrow outer
    # cutoff: the run must halve (possibly repeatedly) and then converge
    g = make_grid(1, 201)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=2, beta=1.0, bump_radius=0.4)
    sol = solve_family(build_frame(ParabolaChart(), g), fam, chart_window(g),
                       cutoff=Cutoff(g, 0.8, 0.95), config=CFG)
    assert sol.horizon_used < 0.5
    k = np.log2(0.5 / sol.horizon_used)
    assert abs(k - round(k)) < 1e-12  # pure halvings
    assert all(tr.status == "converged" for tr in sol.traces)
    assert len(sol.t_grid) == 3  # sample count is preserved
    assert sol.t_grid[-1] == sol.horizon_used
    # one record per failed pass, in order, each naming its failed solve
    assert len(sol.halvings) == round(k)
    for j, h in enumerate(sol.halvings):
        entry = h.summary()
        assert set(entry) == {"horizon", "t", "kind", "iterations", "last_ratio",
                              "steps_to_tol"}  # no stage outside a glue
        assert entry["horizon"] == 0.5 * 0.5**j
        assert entry["t"] in np.linspace(0.0, entry["horizon"], 3)
        assert entry["kind"] == h.trace.status
        assert entry["kind"] in ("diverged", "stalled", "fail-fast")
        assert entry["iterations"] == len(h.trace.increments)
        assert entry["last_ratio"] == (h.trace.ratios[-1] if h.trace.ratios else None)


def test_samples_are_solved_from_the_largest_t(monkeypatch):
    # the increment grows linearly in t, so |f| orders the calls
    calls = []
    solve = family_module.solve_fixed_point

    def recording(frame, cut, f, config=None):
        v, trace = solve(frame, cut, f, config)
        calls.append((float(np.max(np.abs(f))), trace))
        return v, trace

    monkeypatch.setattr(family_module, "solve_fixed_point", recording)
    g = make_grid(1, 201)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=3, beta=0.01, bump_radius=0.4)
    sol = solve_family(build_frame(ParabolaChart(), g), fam, chart_window(g),
                       cutoff=Cutoff(g, 0.5, 0.9), config=CFG)
    sizes = [size for size, _ in calls]
    assert len(sizes) == 4 and sizes == sorted(set(sizes), reverse=True)
    assert sizes[-1] == 0.0  # t = 0 last
    # the results come back in ascending t
    assert all(a is b for a, (_, b) in zip(sol.traces, reversed(calls)))
    assert sol.halvings == []


def test_horizon_collapse(monkeypatch):
    monkeypatch.setattr(family_module, "DT_MIN", 0.04)
    g = make_grid(1, 201)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=8, beta=10.0, bump_radius=0.4)
    with pytest.raises(HorizonCollapse) as exc:
        solve_family(build_frame(ParabolaChart(), g), fam, chart_window(g),
                     cutoff=Cutoff(g, 0.8, 0.95), config=CFG)
    assert exc.value.horizon == 0.25  # one halving allowed before 0.04*8


def test_adaptive_horizon_exhausts_after_the_cap(monkeypatch):
    monkeypatch.setattr(family_module, "DT_MIN", 0.0)
    seen = []

    def never_converges(ts):
        seen.append(ts)
        raise StalledIteration("stalled")

    with pytest.raises(HorizonCollapse, match="exhausted") as exc:
        adaptive_horizon(never_converges, 0.5, 4)
    assert len(seen) == MAX_HALVINGS
    assert len(exc.value.halvings) == MAX_HALVINGS
    assert all(len(ts) == 5 for ts in seen)  # sample count is preserved
    horizons = [ts[-1] for ts in seen]
    assert horizons[0] == 0.5
    assert all(b == 0.5 * a for a, b in zip(horizons, horizons[1:]))
    assert exc.value.horizon == 0.5 * horizons[-1]


def test_solve_family_support_mismatch():
    # increment reaches radius 0.6 but the cutoff is only flat to 0.5
    g = make_grid(1, 201)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=2, beta=0.01, bump_radius=0.6)
    with pytest.raises(ValueError, match="flat radius"):
        solve_family(build_frame(ParabolaChart(), g), fam, chart_window(g),
                     cutoff=Cutoff(g, 0.5, 0.9), config=CFG)


# ---------------------------------------------------------------- stability


def test_stability_gap_ratio():
    g = make_grid(1, 401)
    frame = build_frame(ParabolaChart(), g)
    cut = Cutoff(g, 0.5, 0.9)
    f1 = bump_perturbation(g, 0.01)
    v1, _ = solve_fixed_point(frame, cut, f1, CFG)
    rep = stability_gap(frame, cut, f1, v1, bump_perturbation(g, 0.008), CFG)
    assert rep["ratio"] <= 1.1
    assert 0.45 <= rep["ratio"] <= 0.55  # measured 0.502
    assert rep["gap"] > 0.0


def test_stability_gap_identical_inputs_is_zero():
    g = make_grid(1, 401)
    frame = build_frame(ParabolaChart(), g)
    cut = Cutoff(g, 0.5, 0.9)
    f = bump_perturbation(g, 0.01)
    v, _ = solve_fixed_point(frame, cut, f, CFG)
    rep = stability_gap(frame, cut, f, v, f.copy(), CFG)
    assert rep["gap"] == 0.0
    assert rep["ratio"] == 0.0


# ---------------------------------------------------------------- probe


PROBE_GRID = make_grid(1, 51)


def _fake_solution(t_grid, stack_fn, q=3):
    us = [np.full((PROBE_GRID.num_nodes, q), stack_fn(t)) for t in t_grid]
    return FamilySolution(np.asarray(t_grid), us, [], [], float(t_grid[-1]), None)


def test_probe_quadratic_hand_oracle():
    # u(x, t) = t^2 (constant in x): second divided difference is exactly 2
    # at both step sizes; the first-order sups are 2T - dt and 2T - 2dt.
    T, K = 1.0, 8
    tg = np.linspace(0.0, T, K + 1)
    sol = _fake_solution(tg, lambda t: t * t)
    rep = time_regularity_probe(sol, PROBE_GRID)
    dt = T / K
    assert rep["orders"][2]["native"] == 2.0
    assert rep["orders"][2]["coarse"] == 2.0
    assert rep["orders"][2]["ratio"] == 1.0
    assert abs(rep["orders"][1]["native"] - (2 * T - dt)) < 1e-13
    assert abs(rep["orders"][1]["coarse"] - (2 * T - 2 * dt)) < 1e-13
    assert abs(rep["orders"][1]["ratio"] - (2 * T - dt) / (2 * T - 2 * dt)) < 1e-13


def test_probe_zero_solution_guard():
    tg = np.linspace(0.0, 1.0, 9)
    sol = _fake_solution(tg, lambda t: 0.0)
    rep = time_regularity_probe(sol, PROBE_GRID)
    assert rep["orders"][1]["ratio"] == 1.0  # guarded 0/0
    assert rep["orders"][2]["ratio"] == 1.0


def test_probe_preconditions():
    tg = np.linspace(0.0, 1.0, 9)
    sol = _fake_solution(tg, lambda t: t)
    with pytest.raises(ValueError, match="r_max"):
        time_regularity_probe(sol, PROBE_GRID, r_max=3)
    short = _fake_solution(np.linspace(0.0, 1.0, 4), lambda t: t)
    with pytest.raises(ValueError, match="time samples"):
        time_regularity_probe(short, PROBE_GRID)
