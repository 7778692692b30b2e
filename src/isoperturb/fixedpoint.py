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
step, and abort with a smallness violation when contraction is lost.  The
bound is read off the first step: at v = 0 the loads vanish, v_0 =
-E(0, f/2), and by homogeneity 2 |v_0| is |E(0, f)| bit for bit unless a
value is subnormal or overflows.  It is checked on a certified U_k >= |v_k|:
U_0 = |v_0|, U_k = (U_{k-1} + |v_k - v_{k-1}|)(1 + 1e-12) by subadditivity.
Only when U_k fails the tighter of the bound check and the recurrence
monitor is the exact |v_k| taken, and U_k reset to it: every check decides
as the exact norms would, and a step takes one norm, its increment's, unless
it falls back.  A run that cannot reach tol within MAX_ITER steps, even at
the best of its last three increment ratios, stops early (fail-fast).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .frame import ImmersionFrame, apply_frame
from .grid import VecField, holder_norm, monitor_recurrence, radial_bump
from .operators import Cutoff, load_potentials, normal_correction, tangential_correction
from .poisson import NonFiniteLoad
from .verify import isometry_residual

MAX_ITER = 60  # steps before a run counts as stalled
RATIO_CAP = 0.9  # an increment ratio above this is a strike ...
RATIO_STRIKES = 3  # ... and this many in a row lose contraction
BOUND_SLACK = 1e-6  # relative slack of the a-priori bound
# rounding slack on U_k = (U_{k-1} + |v_k - v_{k-1}|): the norms' subadditivity
# holds in exact arithmetic, and each computed norm carries its own rounding
NORM_MARGIN = 1.0 + 1e-12


class SolveFailure(RuntimeError):
    """A fixed-point solve that gave up, with the trace of its steps.

    t and stage locate the failed sample of a family's pass (None outside one).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
        self.t = self.stage = None


class SmallnessViolation(SolveFailure):
    """Contraction lost (ratio cap or a-priori bound tripped); shrink the input."""


class StalledIteration(SolveFailure):
    """The increment tolerance is not met within MAX_ITER steps.

    Raised when the steps run out (status "stalled") or once the last
    ratios show they will (status "fail-fast").
    """


@dataclass
class IterationConfig:
    tol: float = 1e-10
    alpha: float = 0.5


@dataclass
class IterationTrace:
    """Per-step record of a fixed-point run.

    norms[k] is a certified upper bound on the iterate's C^{2,alpha} norm
    |v_k|; norm_exact[k] is True where it is |v_k| itself (always on row 0).
    """

    norms: list = field(default_factory=list)
    norm_exact: list = field(default_factory=list)
    increments: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    poisson_residuals: list = field(default_factory=list)
    status: str = "running"
    bound: float = 0.0
    tol: float = 0.0

    @property
    def iterations(self):
        return len(self.increments)

    def steps_to_tol(self):
        """Steps the run would need to reach tol at its last increment ratio.

        None without a ratio, or when the last one is not below 1.
        """
        if not self.ratios or not 0.0 < self.ratios[-1] < 1.0:
            return None
        # a difference of logs: tol / increment can underflow to 0
        gap = math.log(self.tol) - math.log(self.increments[-1])
        more = gap / math.log(self.ratios[-1])
        return self.iterations + max(0, math.ceil(more))

    def passes_recurrence_monitor(self):
        """Lemma-style check: every |v_k| <= a0 + 2C with a0=0, C=bound/2.

        It reads the certified norms, which decide as the exact ones would:
        solve_fixed_point takes |v_k| wherever its bound fails this check.
        """
        return monitor_recurrence(0.0, self.bound / 2.0, self.norms)


@dataclass
class SolveRecord:
    """One solve_fixed_point call: where it ran, its load and its fixed point.

    stage is the glue stage (None outside a glue) and t the sample time (None
    for a lone solve); frame is the frame it solved around, f its (nodes,
    n(n+1)/2) load, v the fixed point, u = a^2 v the update of F0 and trace
    its steps.
    """

    stage: int
    t: float
    frame: ImmersionFrame
    f: np.ndarray
    v: np.ndarray
    u: np.ndarray
    trace: IterationTrace

    def residual(self):
        """sup of the oracle isometry residual of F0 + u against f."""
        g, F0 = self.frame.grid, self.frame.F0
        return isometry_residual(VecField(g, F0 + self.u), VecField(g, F0), self.f)[0]


def _check_f_support(cut: Cutoff, f):
    outside = cut.grid.radius() > cut.flat_radius + 1e-12
    if np.any(np.abs(f[outside]) > 0.0):
        worst = float(np.max(np.abs(f[outside])))
        raise ValueError(
            "solve_fixed_point: f must be supported inside the cutoff's flat "
            f"radius {cut.flat_radius} (found |f|={worst:.3e} outside)"
        )


def fixed_point_map(frame: ImmersionFrame, cut: Cutoff, f, v, potentials):
    """One application of the update map -E(P(v), f/2 - Q(v)/2).

    potentials are the load potentials of v (operators.load_potentials);
    f must be supported inside cut's flat radius, which solve_fixed_point
    checks once before its first step.
    """
    p = tangential_correction(cut, potentials)
    q = normal_correction(cut, v, potentials)
    return -apply_frame(frame, p, 0.5 * f - 0.5 * q)


def solve_fixed_point(frame: ImmersionFrame, cut: Cutoff, f, config: IterationConfig = None):
    """Iterate from v=0 to the fixed point; returns (v, trace).

    f is the (nodes, n(n+1)/2) metric change and v a (nodes, q) array, both
    on the frame's grid.

    Raises SmallnessViolation when the a-priori bound trips, the increment
    ratio exceeds RATIO_CAP RATIO_STRIKES times in a row or the quadratic
    load overflows, and StalledIteration when MAX_ITER steps run out, or
    earlier (fail-fast) once inc * rho**(steps left) > tol with rho the
    smallest of the last three ratios.  The smallest, because early ratios
    oscillate: the largest would stop runs that converge.

    The bound, trace.bound = 2 |v_0| = |E(0, f)|, is read off the first
    step; its check and the trace's norms read the module docstring's
    certified U_k.  The exact |v_k| is taken only when not U_k <= min(bound
    (1 + BOUND_SLACK), bound + 1e-12), the recurrence monitor's threshold
    the second term: a NaN fails that test, so it reaches "diverged".
    """
    cfg = config or IterationConfig()
    if cfg.tol <= 0:
        raise ValueError(f"solve_fixed_point: tol must be positive, got {cfg.tol}")
    _check_f_support(cut, f)
    g = frame.grid
    trace = IterationTrace(tol=cfg.tol)
    v = np.zeros((g.num_nodes, frame.q))
    strikes = 0
    for _ in range(MAX_ITER):
        try:
            potentials, pois = load_potentials(cut, v)
        except NonFiniteLoad as exc:
            # the quadratic load of a finite iterate overflowed: too large a step
            trace.status = "diverged"
            raise SmallnessViolation(
                f"load overflowed at step {trace.iterations + 1}: {exc}", trace=trace
            ) from None
        v_new = fixed_point_map(frame, cut, f, v, potentials)
        inc = holder_norm(VecField(g, v_new - v), 2, cfg.alpha)
        if trace.iterations == 0:
            # from v = 0, v_new - v is v_new = -E(0, f/2) bit for bit
            norm, exact = inc, True
            bound = trace.bound = 2.0 * inc  # |E(0, f)|
        else:
            norm, exact = (trace.norms[-1] + inc) * NORM_MARGIN, False
            # the tighter of the bound check and passes_recurrence_monitor
            if not norm <= min(bound * (1.0 + BOUND_SLACK), bound + 1e-12):
                norm, exact = holder_norm(VecField(g, v_new), 2, cfg.alpha), True
        trace.poisson_residuals.append(pois)
        trace.increments.append(inc)
        trace.norms.append(norm)
        trace.norm_exact.append(exact)
        if trace.iterations >= 2:
            # increments[-2] > tol > 0: a smaller one has returned, a NaN
            # one has failed the bound check
            ratio = inc / trace.increments[-2]
            trace.ratios.append(ratio)
            strikes = strikes + 1 if ratio > RATIO_CAP else 0
        if not norm <= bound * (1.0 + BOUND_SLACK):
            trace.status = "diverged"
            raise SmallnessViolation(
                f"a-priori bound violated: |v|={norm:.6e} > bound {bound:.6e} "
                f"(1+{BOUND_SLACK:g}) at step {trace.iterations}",
                trace=trace,
            )
        if strikes >= RATIO_STRIKES:
            trace.status = "diverged"
            raise SmallnessViolation(
                f"contraction lost: increment ratio > {RATIO_CAP} for "
                f"{RATIO_STRIKES} consecutive steps (last {trace.ratios[-1]:.3f}); "
                "shrink the perturbation or the time horizon",
                trace=trace,
            )
        v = v_new
        if inc <= cfg.tol:
            trace.status = "converged"
            return v, trace
        left = MAX_ITER - trace.iterations
        if left > 0 and len(trace.ratios) >= 3:
            predicted = inc * min(trace.ratios[-3:]) ** left
            if predicted > cfg.tol:
                trace.status = "fail-fast"
                raise StalledIteration(
                    f"fail-fast at step {trace.iterations}: increment {inc:.3e} "
                    f"predicts {predicted:.3e} > tol {cfg.tol:g} at step {MAX_ITER}",
                    trace=trace,
                )
    trace.status = "stalled"
    raise StalledIteration(
        f"no convergence in {MAX_ITER} iterations "
        f"(last increment {trace.increments[-1]:.3e} > tol {cfg.tol:g})",
        trace=trace,
    )


def bump_perturbation(grid, amplitude, radius=0.5):
    """Compactly supported bump tensor, (nodes, n(n+1)/2): first component
    amp*(1-(r/R)^2)^4, the others zero."""
    vals = np.zeros((grid.num_nodes, grid.dim * (grid.dim + 1) // 2))
    vals[:, 0] = amplitude * radial_bump(grid, radius, 4)
    return vals


def local_perturb(frame: ImmersionFrame, f, config: IterationConfig = None, cutoff=None):
    """End-to-end local solve around frame.F0: returns (record, report).

    The report carries the oracle isometry residual of F0 + u against
    target f, the support scan of u and its norm over the bound.
    """
    g = frame.grid
    cut = cutoff or Cutoff(g)
    v, trace = solve_fixed_point(frame, cut, f, config)
    rec = SolveRecord(None, None, frame, f, v, cut.values[:, None]**2 * v, trace)
    outside = g.radius() >= cut.support_radius
    support_leak = float(np.max(np.abs(rec.u[outside]))) if np.any(outside) else 0.0
    u_norm = holder_norm(VecField(g, rec.u), 2, (config or IterationConfig()).alpha)
    report = {
        "residual_sup": rec.residual(),
        "support_leak": support_leak,
        "u_norm": u_norm,
        "bound_ratio": u_norm / trace.bound if trace.bound > 0 else 0.0,
    }
    return rec, report
