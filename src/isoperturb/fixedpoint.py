"""Fixed-point iteration for the local isometric-perturbation solve.

The update map is

    step(v) = -E( P(v),  f/2 - Q(v)/2 )

built from the tangential correction P, the normal correction Q, and the
frame inverse E.  At a fixed point v the frame constraints read

    dF0  . v = -P(v)           (tangential)
    d2F0 . v = -f/2 + Q(v)/2   (normal)

which make F = F0 + a^2 v change the pullback metric by exactly a^2 f; with
f supported where a == 1 this is the requested perturbation f itself.

Iterations start at v = 0, stop when the C^{2,alpha} increment drops below
tolerance, enforce the a-priori bound |v_k| <= |E(0,f)| (1 + 1e-6) at every
step, and abort with a smallness violation when contraction is lost.
"""

from dataclasses import dataclass, field

import numpy as np

from .frame import ImmersionFrame, apply_frame
from .grid import SymTensorField, VecField, holder_norm, monitor_recurrence, radial_bump, sym_indices
from .operators import Cutoff, normal_correction, quadratic_load, tangential_correction
from .poisson import solve_dirichlet
from .verify import isometry_residual


class SmallnessViolation(RuntimeError):
    """Contraction lost (ratio cap or a-priori bound tripped); shrink the input."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class StalledIteration(RuntimeError):
    """max_iter reached without meeting the increment tolerance."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass
class IterationConfig:
    tol: float = 1e-10
    max_iter: int = 60
    alpha: float = 0.5
    ratio_cap: float = 0.9
    ratio_strikes: int = 3
    bound_slack: float = 1e-6


@dataclass
class IterationTrace:
    """Per-step record of a fixed-point run."""

    norms: list = field(default_factory=list)
    increments: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    poisson_residuals: list = field(default_factory=list)
    status: str = "running"
    bound: float = 0.0

    @property
    def iterations(self):
        return len(self.increments)

    @property
    def asymptotic_ratio(self):
        if not self.ratios:
            return 0.0
        return float(max(self.ratios[-2:]))

    def passes_recurrence_monitor(self):
        """Lemma-style check: every |v_k| <= a0 + 2C with a0=0, C=bound/2."""
        return monitor_recurrence(0.0, self.bound / 2.0, self.norms)


def _check_f_support(cut: Cutoff, f: SymTensorField):
    r = f.grid.radius()
    outside = r > cut.flat_radius + 1e-12
    if np.any(np.abs(f.values[outside]) > 0.0):
        worst = float(np.max(np.abs(f.values[outside])))
        raise ValueError(
            "fixed_point_map: f must be supported inside the cutoff's flat "
            f"radius {cut.flat_radius} (found |f|={worst:.3e} outside)"
        )


def _solve_potentials(cut: Cutoff, v: VecField):
    sols = [solve_dirichlet(quadratic_load(cut, v, ax)) for ax in range(cut.grid.dim)]
    return [s.u for s in sols], max(s.residual_sup for s in sols)


def fixed_point_map(frame: ImmersionFrame, cut: Cutoff, f: SymTensorField, v: VecField,
                    potentials=None) -> VecField:
    """One application of the update map -E(P(v), f/2 - Q(v)/2)."""
    _check_f_support(cut, f)
    if potentials is None:
        potentials, _ = _solve_potentials(cut, v)
    p = tangential_correction(cut, v, potentials=potentials)
    q = normal_correction(cut, v, potentials=potentials)
    rhs = SymTensorField(f.grid, 0.5 * f.values - 0.5 * q.values)
    e = apply_frame(frame, p, rhs)
    return VecField(f.grid, -e.values)


def solve_fixed_point(frame: ImmersionFrame, cut: Cutoff, f: SymTensorField,
                      config: IterationConfig = None):
    """Iterate from v=0 to the fixed point; returns (v, trace).

    Raises SmallnessViolation when the a-priori bound trips or the
    increment ratio exceeds the cap three times in a row, and
    StalledIteration when max_iter runs out.
    """
    cfg = config or IterationConfig()
    if cfg.tol <= 0:
        raise ValueError(f"solve_fixed_point: tol must be positive, got {cfg.tol}")
    _check_f_support(cut, f)
    g = f.grid
    zero_h = VecField(g, np.zeros((g.num_nodes, g.dim)))
    bound = holder_norm(apply_frame(frame, zero_h, f), 2, cfg.alpha).value
    trace = IterationTrace(bound=bound)
    v = VecField(g, np.zeros((g.num_nodes, frame.q)))
    strikes = 0
    for _ in range(cfg.max_iter):
        potentials, pois = _solve_potentials(cut, v)
        v_new = fixed_point_map(frame, cut, f, v, potentials=potentials)
        inc = holder_norm(VecField(g, v_new.values - v.values), 2, cfg.alpha).value
        norm = holder_norm(v_new, 2, cfg.alpha).value
        trace.poisson_residuals.append(pois)
        trace.increments.append(inc)
        trace.norms.append(norm)
        if trace.increments and len(trace.increments) >= 2:
            prev = trace.increments[-2]
            if prev > 0.0:
                ratio = inc / prev
                trace.ratios.append(ratio)
                strikes = strikes + 1 if ratio > cfg.ratio_cap else 0
        if not norm <= bound * (1.0 + cfg.bound_slack):
            trace.status = "diverged"
            raise SmallnessViolation(
                f"a-priori bound violated: |v|={norm:.6e} > bound {bound:.6e} "
                f"(1+{cfg.bound_slack:g}) at step {trace.iterations}",
                trace=trace,
            )
        if strikes >= cfg.ratio_strikes:
            trace.status = "diverged"
            raise SmallnessViolation(
                f"contraction lost: increment ratio > {cfg.ratio_cap} for "
                f"{cfg.ratio_strikes} consecutive steps (last {trace.ratios[-1]:.3f}); "
                "shrink the perturbation or the time horizon",
                trace=trace,
            )
        v = v_new
        if inc <= cfg.tol:
            trace.status = "converged"
            return v, trace
    trace.status = "stalled"
    raise StalledIteration(
        f"no convergence in {cfg.max_iter} iterations "
        f"(last increment {trace.increments[-1]:.3e} > tol {cfg.tol:g})",
        trace=trace,
    )


def verify_identity(frame: ImmersionFrame, cut: Cutoff, v: VecField, f: SymTensorField,
                    alpha=0.5):
    """Report the three residual groups of the structural identity.

    tangential_constraint : sup |dF0 . v + P(v)|       per axis
    normal_constraint     : sup |d2F0 . v + f/2 - Q/2| per index pair
    isometry              : sup |dF.dF - dF0.dF0 - a^2 f|, module stencils
    """
    g = f.grid
    potentials, _ = _solve_potentials(cut, v)
    p = tangential_correction(cut, v, potentials=potentials)
    q = normal_correction(cut, v, potentials=potentials)
    n = g.dim
    r1 = 0.0
    for i in range(n):
        got = np.sum(frame.A[:, i, :] * v.values, axis=1) + p.values[:, i]
        r1 = max(r1, float(np.max(np.abs(got))))
    r2 = 0.0
    for k in range(frame.rows - n):
        got = (
            np.sum(frame.A[:, n + k, :] * v.values, axis=1)
            + 0.5 * f.values[:, k]
            - 0.5 * q.values[:, k]
        )
        r2 = max(r2, float(np.max(np.abs(got))))
    a2 = cut.values**2
    F = VecField(g, frame.F0.values + a2[:, None] * v.values)
    r3 = 0.0
    d1 = [g.derivative_matrix(tuple(1 if a == ax else 0 for a in range(n))) for ax in range(n)]
    dF = [m @ F.values for m in d1]
    dF0 = [m @ frame.F0.values for m in d1]
    for k, (i, j) in enumerate(sym_indices(n)):
        got = (
            np.sum(dF[i] * dF[j], axis=1)
            - np.sum(dF0[i] * dF0[j], axis=1)
            - a2 * f.values[:, k]
        )
        r3 = max(r3, float(np.max(np.abs(got))))
    return {
        "tangential_constraint": r1,
        "normal_constraint": r2,
        "isometry": r3,
        "alpha": alpha,
    }


def bump_perturbation(grid, amplitude, radius=None, power=4):
    """Compactly supported bump tensor: first component amp*(1-(r/R)^2)^power."""
    if radius is None:
        radius = grid.support_radii[0]
    prof = amplitude * radial_bump(grid, radius, power)
    comps = grid.dim * (grid.dim + 1) // 2
    vals = np.zeros((grid.num_nodes, comps))
    vals[:, 0] = prof
    return SymTensorField(grid, vals)


def local_perturb(source, f: SymTensorField, config: IterationConfig = None, cutoff=None):
    """End-to-end local solve: returns (u, report) with u = a^2 v.

    The report carries the oracle isometry residual of F0 + u against
    target f, the support scan, norm bounds, and the iteration trace.
    """
    from .frame import build_frame

    g = f.grid
    frame = source if isinstance(source, ImmersionFrame) else build_frame(source, g)
    cut = cutoff or Cutoff(g)
    r = g.radius()
    v, trace = solve_fixed_point(frame, cut, f, config)
    a2 = cut.values**2
    u = VecField(g, a2[:, None] * v.values)
    F = VecField(g, frame.F0.values + u.values)
    residual_sup, residual = isometry_residual(F, frame.F0, f)
    outside = r >= cut.support_radius
    support_leak = float(np.max(np.abs(u.values[outside]))) if np.any(outside) else 0.0
    alpha = (config or IterationConfig()).alpha
    u_norm = holder_norm(u, 2, alpha).value
    report = {
        "residual_sup": residual_sup,
        "support_leak": support_leak,
        "u_norm": u_norm,
        "frame_bound": trace.bound,
        "bound_ratio": u_norm / trace.bound if trace.bound > 0 else 0.0,
        "iterations": trace.iterations,
        "monitor_ok": trace.passes_recurrence_monitor(),
        "trace": trace,
        "residual_field": residual,
        "constraints": verify_identity(frame, cut, v, f, alpha),
    }
    return u, report
