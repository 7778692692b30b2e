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

from isoperturb.embeddings import CircleChart, ParabolaChart
from isoperturb.family import (
    MAX_HALVINGS,
    FamilySolution,
    HorizonCollapse,
    adaptive_horizon,
    build_family,
    chart_window,
    solve_family,
    stability_gap,
    time_regularity_probe,
    windowed_increment,
)
from isoperturb.fixedpoint import IterationConfig, StalledIteration, bump_perturbation
from isoperturb.frame import build_frame
from isoperturb.grid import ScalarField, SymTensorField, VecField, make_grid
from isoperturb.operators import Cutoff


CFG = IterationConfig(tol=1e-9)


# ---------------------------------------------------------------- window


def test_chart_window_pinned_regions():
    g = make_grid(1, 401)
    w = chart_window(g)
    r = g.radius()
    assert np.all(w.values[r <= 0.5] == 1.0)
    assert np.all(w.values[r >= 0.75] == 0.0)
    mid = (r > 0.5) & (r < 0.75)
    assert np.all((w.values[mid] > 0) & (w.values[mid] < 1))
    # radially monotone on the right half
    right = g.coords[:, 0] >= 0
    order = np.argsort(g.coords[right, 0])
    vals = w.values[right][order]
    assert np.all(np.diff(vals) <= 1e-15)


def test_window_validation_rejects_bad_profiles():
    g = make_grid(1, 201)
    fam = build_family("uniform-scale", g, horizon=1.0, samples=4, beta=0.1)
    with pytest.raises(ValueError, match="exactly 1"):
        windowed_increment(Cutoff(g, 0.4, 0.7), fam, 0.5)
    with pytest.raises(ValueError, match="inside radius 3/4"):
        windowed_increment(Cutoff(g, 0.6, 0.8), fam, 0.5)


def test_windowed_increment_zero_at_t0_is_exact():
    g = make_grid(1, 401)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=4, beta=0.01, bump_radius=0.4)
    ghat = windowed_increment(chart_window(g), fam, 0.0)
    assert np.all(ghat.values == 0.0)  # IEEE: psi*(g - g) is exactly zero


def test_windowed_increment_hand_product():
    g = make_grid(1, 201)
    w = chart_window(g)
    fam = build_family("uniform-scale", g, base=ParabolaChart(), horizon=1.0,
                       samples=4, beta=0.2)
    t = 0.75
    base = ParabolaChart().base_metric(g).values
    expected = w.values[:, None] * ((1.0 + 0.2 * t) * base - base)
    got = windowed_increment(w, fam, t)
    assert np.max(np.abs(got.values - expected)) == 0.0
    # support is pinned by the window
    assert np.all(got.values[g.radius() >= 0.75] == 0.0)


@settings(max_examples=20, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=0.5))
def test_windowed_increment_support_property(t):
    g = make_grid(1, 51)
    w = chart_window(g)
    fam = build_family("uniform-scale", g, horizon=0.5, samples=2, beta=0.3)
    ghat = windowed_increment(w, fam, t)
    assert np.all(ghat.values[g.radius() >= 0.75] == 0.0)
    assert np.all(np.isfinite(ghat.values))
    expected = w.values * ((1.0 + 0.3 * t) - 1.0)
    assert np.max(np.abs(ghat.values[:, 0] - expected)) <= 1e-14


# ---------------------------------------------------------------- families


def test_constant_family_is_constant():
    g = make_grid(1, 101)
    fam = build_family("constant", g, horizon=1.0, samples=3)
    assert np.all(fam.sample(0.7).values == fam.sample(0.0).values)
    assert fam.positivity_margin == 1.0
    assert np.all(fam.t_grid == np.linspace(0.0, 1.0, 4))


def test_uniform_scale_values_and_margin():
    g = make_grid(1, 101)
    fam = build_family("uniform-scale", g, base=ParabolaChart(), horizon=1.0,
                       samples=4, beta=0.5)
    x = g.coords[:, 0]
    expected = (1.0 + 0.5 * 0.25) * (1.0 + 4.0 * x**2)
    assert np.max(np.abs(fam.sample(0.25).values[:, 0] - expected)) == 0.0
    # min over t of min_x (1+beta*t)(1+4x^2) is at t=0, x=0
    assert fam.positivity_margin == 1.0


def test_bump_breathing_touches_only_first_component():
    g = make_grid(2, 33)
    fam = build_family("bump-breathing", g, horizon=1.0, samples=2, beta=0.3,
                       bump_radius=0.4)
    g0 = fam.sample(0.0).values
    g1 = fam.sample(1.0).values
    assert np.all(g1[:, 1] == g0[:, 1])
    assert np.all(g1[:, 2] == g0[:, 2])
    r2 = (g.coords**2).sum(axis=1)
    prof = np.clip(1.0 - r2 / 0.4**2, 0.0, None) ** 4
    # one ulp of cancellation in (base + inc) - base at scale 1
    assert np.max(np.abs((g1[:, 0] - g0[:, 0]) - 0.3 * prof)) <= 1e-16


def test_circle_breathing_needs_circle_chart():
    g = make_grid(1, 101)
    with pytest.raises(ValueError, match="circle chart"):
        build_family("circle-breathing", g, horizon=1.0, samples=2)
    chart = CircleChart()
    fam = build_family("circle-breathing", g, base=chart, horizon=1.0,
                       samples=2, beta=0.05)
    th = chart.angles(g)
    c2 = (0.75 * np.pi) ** 2
    expected = (1.0 + 0.05 * 1.0 * 0.5 * (1.0 + np.cos(th))) * c2
    assert np.max(np.abs(fam.sample(1.0).values[:, 0] - expected)) < 1e-12


def test_family_validation():
    g = make_grid(1, 101)
    with pytest.raises(ValueError, match="unknown family"):
        build_family("wobble", g)
    with pytest.raises(ValueError, match="samples"):
        build_family("constant", g, samples=0)
    with pytest.raises(ValueError, match="horizon"):
        build_family("constant", g, horizon=0.0)
    with pytest.raises(ValueError, match="positive definiteness"):
        build_family("bump-breathing", g, horizon=1.0, samples=2, beta=-2.0,
                     bump_radius=0.4)


# ---------------------------------------------------------------- solves


@pytest.fixture(scope="module")
def breathing_solution():
    g = make_grid(1, 401)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=4, beta=0.01, bump_radius=0.4)
    sol = solve_family(ParabolaChart(), fam, cutoff=Cutoff(g, 0.5, 0.9),
                       config=CFG)
    return sol


def test_breathing_solution_contract(breathing_solution):
    sol = breathing_solution
    assert sol.horizon_used == 0.5  # no halving at this amplitude
    assert np.all(sol.us[0].values == 0.0)  # t=0 increment solves to zero
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
    rep = time_regularity_probe(breathing_solution)
    for r in (1, 2):
        assert rep["orders"][r]["ratio"] <= 2.0
        assert np.isfinite(rep["orders"][r]["native"])
    assert breathing_solution.regularity_probe is rep


def test_horizon_halving_recovers():
    # amplitude far above the smallness threshold for the narrow outer
    # cutoff: the run must halve (possibly repeatedly) and then converge
    g = make_grid(1, 201)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=2, beta=1.0, bump_radius=0.4)
    sol = solve_family(ParabolaChart(), fam, cutoff=Cutoff(g, 0.8, 0.95),
                       config=CFG)
    assert sol.horizon_used < 0.5
    k = np.log2(0.5 / sol.horizon_used)
    assert abs(k - round(k)) < 1e-12  # pure halvings
    assert all(tr.status == "converged" for tr in sol.traces)
    assert len(sol.t_grid) == 3  # sample count is preserved
    assert sol.t_grid[-1] == sol.horizon_used


def test_horizon_collapse():
    g = make_grid(1, 201)
    fam = build_family("bump-breathing", g, base=ParabolaChart(), horizon=0.5,
                       samples=8, beta=10.0, bump_radius=0.4)
    with pytest.raises(HorizonCollapse) as exc:
        solve_family(ParabolaChart(), fam, cutoff=Cutoff(g, 0.8, 0.95),
                     config=CFG, dt_min=0.04)
    assert exc.value.horizon == 0.25  # one halving allowed before 0.04*8


def test_adaptive_horizon_exhausts_after_the_cap():
    seen = []

    def never_converges(ts):
        seen.append(ts)
        raise StalledIteration("stalled")

    with pytest.raises(HorizonCollapse, match="exhausted") as exc:
        adaptive_horizon(never_converges, 0.5, 4, dt_min=0.0)
    assert len(seen) == MAX_HALVINGS
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
        solve_family(ParabolaChart(), fam, cutoff=Cutoff(g, 0.5, 0.9),
                     config=CFG)


# ---------------------------------------------------------------- stability


def test_stability_gap_ratio():
    g = make_grid(1, 401, support_radii=(0.5, 0.9))
    frame = build_frame(ParabolaChart(), g)
    cut = Cutoff(g)
    rep = stability_gap(frame, cut, bump_perturbation(g, 0.01),
                        bump_perturbation(g, 0.008), CFG)
    assert rep["ratio"] <= 1.1
    assert 0.45 <= rep["ratio"] <= 0.55  # measured 0.502
    assert rep["gap"] > 0.0


def test_stability_gap_identical_inputs_is_zero():
    g = make_grid(1, 401, support_radii=(0.5, 0.9))
    frame = build_frame(ParabolaChart(), g)
    cut = Cutoff(g)
    f = bump_perturbation(g, 0.01)
    rep = stability_gap(frame, cut, f, SymTensorField(g, f.values.copy()), CFG)
    assert rep["gap"] == 0.0
    assert rep["ratio"] == 0.0


# ---------------------------------------------------------------- probe


def _fake_solution(t_grid, stack_fn, q=3, nodes_grid=None):
    g = nodes_grid or make_grid(1, 51)
    us = [VecField(g, np.full((g.num_nodes, q), stack_fn(t))) for t in t_grid]
    return FamilySolution(np.asarray(t_grid), us, [], [], float(t_grid[-1]),
                          None, None, [])


def test_probe_quadratic_hand_oracle():
    # u(x, t) = t^2 (constant in x): second divided difference is exactly 2
    # at both step sizes; the first-order sups are 2T - dt and 2T - 2dt.
    T, K = 1.0, 8
    tg = np.linspace(0.0, T, K + 1)
    sol = _fake_solution(tg, lambda t: t * t)
    rep = time_regularity_probe(sol)
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
    rep = time_regularity_probe(sol)
    assert rep["orders"][1]["ratio"] == 1.0  # guarded 0/0
    assert rep["orders"][2]["ratio"] == 1.0


def test_probe_preconditions():
    tg = np.linspace(0.0, 1.0, 9)
    sol = _fake_solution(tg, lambda t: t)
    with pytest.raises(ValueError, match="r_max"):
        time_regularity_probe(sol, r_max=3)
    short = _fake_solution(np.linspace(0.0, 1.0, 4), lambda t: t)
    with pytest.raises(ValueError, match="time samples"):
        time_regularity_probe(short)
