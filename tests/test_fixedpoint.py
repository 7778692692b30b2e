"""Fixed-point iteration tests.

The leading-order oracle is exact: with v = 0 the quadratic corrections
vanish identically (zero loads give zero potentials), so the first sweep
must return exactly -E(0, f/2).  The solve reads its a-priori bound off
that step as 2 |v_0|; a separate norm of the frame response E(0, f) must
give the same bound bit for bit, in 1-d and 2-d.  The calibrated bump scenario then freezes the
measured residual/iteration/ratio windows, and the safeguard paths
(divergence, fail-fast, stall, support mismatch) are driven to their
exceptions, and the local solve's residual shrinks at least 3x per doubling
of the resolution.  The trace's norms are certified upper bounds on the iterates'
norms; replaying the iterates by hand checks them against the exact norms,
on a run that takes the exact fallback too.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoperturb import fixedpoint
from isoperturb import grid as grid_module
from isoperturb.embeddings import ParabolaChart, TorusChart
from isoperturb.fixedpoint import (
    MAX_ITER,
    IterationConfig,
    IterationTrace,
    SmallnessViolation,
    StalledIteration,
    bump_perturbation,
    fixed_point_map,
    local_perturb,
    solve_fixed_point,
)
from isoperturb.frame import apply_frame, build_frame, frame_matrix
from isoperturb.grid import VecField, holder_norm, make_grid, sym_indices
from isoperturb.operators import (
    Cutoff,
    load_potentials,
    normal_correction,
    tangential_correction,
)


@pytest.fixture(scope="module")
def bump_setup():
    g = make_grid(1, 401)
    frame = build_frame(ParabolaChart(), g)
    cut = Cutoff(g, 0.5, 0.9)
    f = bump_perturbation(g, 0.01)
    return g, frame, cut, f


@pytest.fixture(scope="module")
def oscillating_setup():
    # configs/local_bump.yaml
    g = make_grid(1, 401)
    frame = build_frame(ParabolaChart(), g)
    return g, frame, Cutoff(g), bump_perturbation(g, 0.01, 0.5), IterationConfig(tol=1e-9)


@pytest.fixture(scope="module")
def bump_solution(bump_setup):
    g, frame, cut, f = bump_setup
    v, trace = solve_fixed_point(frame, cut, f)
    return v, trace


# ------------------------------------------------------------ first sweep


def test_first_sweep_is_exact_frame_response(bump_setup):
    g, frame, cut, f = bump_setup
    v0 = np.zeros((g.num_nodes, frame.q))
    got = fixed_point_map(frame, cut, f, v0, load_potentials(cut, v0)[0])
    zero_h = np.zeros((g.num_nodes, g.dim))
    expected = -apply_frame(frame, zero_h, 0.5 * f)
    assert np.all(got == expected)  # Q(0) and P(0) vanish exactly


def _frame_bound(frame, f, alpha=0.5):
    """|E(0, f)|, the a-priori bound, measured on its own."""
    g = frame.grid
    return holder_norm(VecField(g, apply_frame(frame, np.zeros((g.num_nodes, g.dim)), f)), 2, alpha)


def test_first_norm_is_half_the_bound(bump_setup, bump_solution, oscillating_setup):
    # the solve reads its bound off the first step, 2 |v_0|; it is |E(0, f)|
    # bit for bit, as a separate norm of the frame's response measures it
    _, trace = bump_solution
    assert trace.norms[0] == 0.5 * trace.bound
    assert trace.bound == _frame_bound(bump_setup[1], bump_setup[3])
    g, frame, cut, f, cfg = oscillating_setup
    _, trace = solve_fixed_point(frame, cut, f, cfg)
    assert trace.norms[0] == 0.5 * trace.bound == 0.5 * _frame_bound(frame, f)
    g = make_grid(2, 25)  # a 2-d frame: the torus chart on torus_smoke's disk grid
    frame, f = build_frame(TorusChart(), g), bump_perturbation(g, 0.01)
    _, trace = solve_fixed_point(frame, Cutoff(g), f)
    assert trace.status == "converged"
    assert trace.norms[0] == 0.5 * trace.bound == 0.5 * _frame_bound(frame, f)


def test_zero_increment_converges_immediately(bump_setup):
    g, frame, cut, _ = bump_setup
    f0 = np.zeros((g.num_nodes, 1))
    v, trace = solve_fixed_point(frame, cut, f0)
    assert trace.iterations == 1
    assert trace.status == "converged"
    assert np.all(v == 0.0)


# ------------------------------------------------------- calibrated bump


def test_bump_scenario_frozen_windows(bump_solution):
    v, trace = bump_solution
    assert trace.status == "converged"
    assert trace.iterations <= 12  # measured 10
    assert max(trace.ratios[-2:]) < 0.1  # measured 0.0675
    assert 1.0 < trace.bound < 1.2  # measured 1.1068
    for n in trace.norms:
        assert n <= trace.bound * (1 + 1e-6)
    assert trace.passes_recurrence_monitor()


def replay_certified_norms(frame, cut, f, trace, alpha=0.5):
    """Retrace a run's iterates by hand; check each recorded norm against |v_k|.

    Every row holds exact <= recorded <= bound (1 + 1e-6); rows marked
    exact, row 0 always among them, hold the exact norm itself.
    """
    g = frame.grid
    v = np.zeros((g.num_nodes, frame.q))
    assert trace.norm_exact[0]
    assert len(trace.norm_exact) == len(trace.norms) == trace.iterations
    for k in range(trace.iterations):
        v = fixed_point_map(frame, cut, f, v, load_potentials(cut, v)[0])
        exact = holder_norm(VecField(g, v), 2, alpha)
        assert exact <= trace.norms[k] <= trace.bound * (1 + 1e-6), k
        if trace.norm_exact[k]:
            assert trace.norms[k] == exact, k


def test_certified_norms_bound_the_exact_ones(bump_setup, bump_solution):
    g, frame, cut, f = bump_setup
    replay_certified_norms(frame, cut, f, bump_solution[1])


def test_certified_norms_bound_the_exact_ones_where_the_fallback_runs(oscillating_setup):
    # configs/local_bump.yaml: step 1's ratio 0.93 lifts U_1 to 1.93 |v_0|,
    # past the bound 2 |v_0| at step 2, which takes the exact norm
    g, frame, cut, f, cfg = oscillating_setup
    _, trace = solve_fixed_point(frame, cut, f, cfg)
    assert [k for k, exact in enumerate(trace.norm_exact) if exact] == [0, 2]
    replay_certified_norms(frame, cut, f, trace)


def test_one_norm_per_step_and_one_per_fallback(bump_setup, monkeypatch):
    # one norm per step, its increment's (the first one is half the bound,
    # which takes no norm of its own); the iterate's own norm only where the
    # certified bound falls back to it
    g, frame, cut, f = bump_setup
    calls = []
    norms = grid_module.holder_norms

    def counted(fld, orders, alpha):
        calls.append(orders)
        return norms(fld, orders, alpha)

    monkeypatch.setattr(grid_module, "holder_norms", counted)
    _, trace = solve_fixed_point(frame, cut, f)
    fallbacks = sum(trace.norm_exact[1:])
    assert len(calls) == trace.iterations + fallbacks
    assert (trace.iterations, fallbacks, len(calls)) == (10, 0, 10)


def test_halving_amplitude_halves_the_solution(bump_setup):
    g, frame, cut, f = bump_setup
    v1, _ = solve_fixed_point(frame, cut, f)
    v2, _ = solve_fixed_point(frame, cut, bump_perturbation(g, 0.005))
    ratio = holder_norm(VecField(g, v2), 2, 0.5) / holder_norm(VecField(g, v1), 2, 0.5)
    assert 0.47 <= ratio <= 0.53  # measured 0.4994; nonlinearity is tiny


def test_local_perturb_report(bump_setup):
    g, frame, cut, f = bump_setup
    rec, report = local_perturb(frame, f, cutoff=cut)
    assert report["residual_sup"] < 1e-6  # measured 5.09e-8
    assert 2e-8 <= report["residual_sup"] <= 1e-7
    assert report["support_leak"] == 0.0
    assert 0.45 <= report["bound_ratio"] <= 0.55  # measured 0.50
    assert rec.trace.iterations <= 12
    assert rec.trace.passes_recurrence_monitor()
    assert rec.u.shape == (g.num_nodes, 2)
    # u vanishes identically outside the cutoff support
    assert np.all(rec.u[g.radius() >= 0.9] == 0.0)


def test_local_residual_decays_under_doubling():
    # configs/local_bump.yaml's solve at tol 1e-11; measured factors 8.40, 3.86
    residuals = []
    for N in (201, 401, 801):
        g = make_grid(1, N)
        f = bump_perturbation(g, 0.01, 0.5)
        _, report = local_perturb(build_frame(ParabolaChart(), g), f, config=IterationConfig(tol=1e-11))
        residuals.append(report["residual_sup"])
    factors = [r0 / r1 for r0, r1 in zip(residuals, residuals[1:])]
    print("local residual at N = 201, 401, 801:", ", ".join(f"{r:.3e}" for r in residuals),
          "; decay factors", ", ".join(f"{x:.2f}" for x in factors))
    assert all(x >= 3.0 for x in factors)


def verify_identity(frame, cut, v, f):
    """The three residual groups of the structural identity.

    tangential_constraint : sup |dF0 . v + P(v)|       per axis
    normal_constraint     : sup |d2F0 . v + f/2 - Q/2| per index pair
    isometry              : sup |dF.dF - dF0.dF0 - a^2 f|, module stencils

    dF0 and d2F0 are the rows of the parabola, which bump_setup's frame is
    built from.
    """
    g = frame.grid
    _, A = frame_matrix(ParabolaChart(), g)
    potentials, _ = load_potentials(cut, v)
    p = tangential_correction(cut, potentials)
    q = normal_correction(cut, v, potentials)
    n = g.dim
    r1 = 0.0
    for i in range(n):
        got = np.sum(A[:, i, :] * v, axis=1) + p[:, i]
        r1 = max(r1, float(np.max(np.abs(got))))
    r2 = 0.0
    for k in range(frame.rows - n):
        got = (
            np.sum(A[:, n + k, :] * v, axis=1)
            + 0.5 * f[:, k]
            - 0.5 * q[:, k]
        )
        r2 = max(r2, float(np.max(np.abs(got))))
    a2 = cut.values**2
    F = frame.F0 + a2[:, None] * v
    r3 = 0.0
    d1 = [g.derivative_matrix(tuple(1 if a == ax else 0 for a in range(n))) for ax in range(n)]
    dF = [m @ F for m in d1]
    dF0 = [m @ frame.F0 for m in d1]
    for k, (i, j) in enumerate(sym_indices(n)):
        got = (
            np.sum(dF[i] * dF[j], axis=1)
            - np.sum(dF0[i] * dF0[j], axis=1)
            - a2 * f[:, k]
        )
        r3 = max(r3, float(np.max(np.abs(got))))
    return {"tangential_constraint": r1, "normal_constraint": r2, "isometry": r3}


def test_verify_identity_at_fixed_point(bump_setup, bump_solution):
    g, frame, cut, f = bump_setup
    v, _ = bump_solution
    rep = verify_identity(frame, cut, v, f)
    assert rep["tangential_constraint"] < 1e-12  # measured 5e-17
    assert rep["normal_constraint"] < 1e-12  # measured 9.2e-16
    assert rep["isometry"] < 1e-5  # 2nd-order internal stencils, measured 4e-6
    # away from the fixed point the constraints are macroscopic
    rep0 = verify_identity(frame, cut, np.zeros_like(v), f)
    assert rep0["tangential_constraint"] == 0.0  # P(0) = 0 exactly
    assert rep0["normal_constraint"] == 0.005  # sup |f/2| at the bump peak
    assert rep0["isometry"] == 0.01  # sup |a^2 f| with a = 1 there


# ------------------------------------------------------------ safeguards


def test_oversized_increment_violates_smallness(bump_setup):
    g, frame, cut, _ = bump_setup
    with pytest.raises(SmallnessViolation) as exc:
        solve_fixed_point(frame, cut, bump_perturbation(g, 10.0))
    assert exc.value.trace.status == "diverged"
    assert exc.value.trace.iterations == 2  # second sweep overshoots
    # the certified bound failed, so the exact norm decided the divergence
    assert exc.value.trace.norm_exact == [True, True]
    assert exc.value.trace.norms[1] > exc.value.trace.bound * (1 + 1e-6)


def test_nan_iterate_diverges(bump_setup, monkeypatch):
    # a NaN fails every comparison: it must still reach the bound check's
    # "diverged", not pass as a certified bound
    g, frame, cut, f = bump_setup
    steps = []
    step = fixedpoint.fixed_point_map

    def nan_at_step_3(*args):
        steps.append(None)
        v = step(*args)
        return np.full_like(v, np.nan) if len(steps) == 3 else v

    monkeypatch.setattr(fixedpoint, "fixed_point_map", nan_at_step_3)
    with pytest.raises(SmallnessViolation, match="a-priori bound violated") as exc:
        solve_fixed_point(frame, cut, f)
    trace = exc.value.trace
    assert trace.status == "diverged"
    assert trace.iterations == 3
    assert math.isnan(trace.norms[-1]) and math.isnan(trace.increments[-1])


@pytest.fixture(scope="module")
def borderline_setup():
    # narrow outer cutoff: ratios hover ~0.875, under the strike cap, and
    # the increment cannot reach tol within MAX_ITER
    g = make_grid(1, 201)
    frame = build_frame(ParabolaChart(), g)
    return g, frame, Cutoff(g, 0.8, 0.95), bump_perturbation(g, 0.01, radius=0.4)


def test_borderline_contraction_fails_fast(borderline_setup):
    g, frame, cut, f = borderline_setup
    with pytest.raises(StalledIteration, match="fail-fast") as exc:
        solve_fixed_point(frame, cut, f)
    trace = exc.value.trace
    assert trace.status == "fail-fast"
    assert trace.iterations < MAX_ITER
    assert trace.steps_to_tol() > MAX_ITER
    # the stop was right: MAX_ITER steps of the map, taken by hand, retrace
    # the run and never bring the increment down to tol
    tol = IterationConfig().tol
    v = np.zeros((g.num_nodes, frame.q))
    increments = []
    for _ in range(MAX_ITER):
        v_new = fixed_point_map(frame, cut, f, v, load_potentials(cut, v)[0])
        increments.append(holder_norm(VecField(g, v_new - v), 2, 0.5))
        v = v_new
    assert increments[: trace.iterations] == trace.increments
    assert min(increments) > tol
    ratios = np.array(increments[1:]) / np.array(increments[:-1])
    assert ratios[1:].max() < 0.9  # one strike at most: only the budget stops it
    replay_certified_norms(frame, cut, f, trace)


def test_borderline_contraction_stalls(borderline_setup, monkeypatch):
    # with too few steps for three ratios, the run ends on the step budget
    g, frame, cut, f = borderline_setup
    monkeypatch.setattr(fixedpoint, "MAX_ITER", 3)
    with pytest.raises(StalledIteration, match="no convergence in 3") as exc:
        solve_fixed_point(frame, cut, f)
    assert exc.value.trace.status == "stalled"
    assert exc.value.trace.iterations == 3


def test_steps_to_tol_at_the_smallest_tol():
    # tol / increment underflows to 0 here: the estimate was a math domain
    # error, and a glue run whose halving recorded it exited 3
    trace = IterationTrace(increments=[8.0, 4.0], ratios=[0.5], tol=5e-324)
    assert trace.steps_to_tol() == 2 + 1076  # 5e-324 is 2**-1074


def test_fail_fast_spares_an_oscillating_run_that_converges(oscillating_setup):
    # configs/local_bump.yaml: the early ratios oscillate (0.93, 0.29,
    # 0.48), so inc * max(last three)**(steps left) overshoots tol at step 4
    # of a run that converges in 27; the min of the last three does not
    g, frame, cut, f, cfg = oscillating_setup
    _, trace = solve_fixed_point(frame, cut, f, cfg)
    assert trace.status == "converged"
    assert trace.iterations == 27
    max_rule = [
        step for step in range(4, trace.iterations)
        if trace.increments[step - 1] * max(trace.ratios[step - 4:step - 1])
        ** (MAX_ITER - step) > cfg.tol
    ]
    assert max_rule[0] == 4


def test_support_mismatch_rejected(bump_setup):
    g, frame, cut, _ = bump_setup
    with pytest.raises(ValueError, match="flat radius"):
        solve_fixed_point(frame, cut, bump_perturbation(g, 0.01, radius=0.6))


def test_bad_tolerance_rejected(bump_setup):
    g, frame, cut, f = bump_setup
    with pytest.raises(ValueError, match="tol"):
        solve_fixed_point(frame, cut, f, IterationConfig(tol=0.0))


# ------------------------------------------------------------- properties


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(min_value=0.25, max_value=4.0))
def test_first_sweep_scales_linearly(lam):
    g = make_grid(1, 51)
    frame = build_frame(ParabolaChart(), g)
    cut = Cutoff(g)
    f = bump_perturbation(g, 0.01)
    v0 = np.zeros((g.num_nodes, frame.q))
    w, _ = load_potentials(cut, v0)
    base = fixed_point_map(frame, cut, f, v0, w)
    scaled = fixed_point_map(frame, cut, lam * f, v0, w)
    assert np.max(np.abs(scaled - lam * base)) <= 1e-13 * max(1.0, lam)
