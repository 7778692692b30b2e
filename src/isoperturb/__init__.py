"""Numerical construction of isometric embedding perturbations.

Given a free embedding F0 of a 1- or 2-dimensional chart and a small
symmetric-tensor increment f supported inside the chart, the package builds
the perturbed embedding F = F0 + a^2 v whose pullback metric gains exactly
a^2 f, by a fixed-point iteration around the frame pseudoinverse of F0.
On top of the single-chart solve it ships time-dependent metric families
(with adaptive horizon), a two-chart circle atlas and a four-chart flat-torus
atlas with stage-by-stage gluing, a discrete Hoelder-norm calculus with a
verified inequality suite, and a scenario-driven CLI.
"""

from .grid import (
    Grid,
    ScalarField,
    VecField,
    SymTensorField,
    make_grid,
    derivative,
    laplacian,
    holder_norm,
    holder_norms,
    check_inequalities,
    monitor_recurrence,
)
from .poisson import DirichletSolution, PoissonSolver, solve_dirichlet
from .operators import (
    Cutoff,
    smoothstep,
    quadratic_load,
    load_potentials,
    tangential_correction,
    potential_coupling_term,
    gradient_product_term,
    normal_correction,
)
from .frame import (
    ImmersionFrame,
    NotFreeError,
    frame_matrix,
    build_frame,
    apply_frame,
)
from .fixedpoint import (
    IterationConfig,
    IterationTrace,
    SolveFailure,
    SmallnessViolation,
    StalledIteration,
    fixed_point_map,
    solve_fixed_point,
    local_perturb,
)
from .family import (
    MetricFamily,
    FamilySolution,
    HorizonCollapse,
    build_family,
    build_manifold_family,
    chart_window,
    windowed_increment,
    solve_family,
    stability_gap,
    time_regularity_probe,
)
from .atlas import (
    Atlas,
    GlobalSolution,
    StageFailure,
    build_atlas,
    decompose_metric,
    glue_solve,
    pullback_residual,
    solution_residuals,
)
from .embeddings import base_embedding, make_mesh
from .config import Scenario, load_scenario, scenario_hash

__version__ = "0.1.0"

__all__ = [
    "Grid", "ScalarField", "VecField", "SymTensorField",
    "make_grid", "derivative", "laplacian", "holder_norm", "holder_norms",
    "check_inequalities", "monitor_recurrence",
    "DirichletSolution", "PoissonSolver", "solve_dirichlet",
    "Cutoff", "smoothstep", "quadratic_load", "load_potentials",
    "tangential_correction", "potential_coupling_term",
    "gradient_product_term", "normal_correction",
    "ImmersionFrame", "NotFreeError", "frame_matrix",
    "build_frame", "apply_frame",
    "IterationConfig", "IterationTrace", "SolveFailure", "SmallnessViolation",
    "StalledIteration", "fixed_point_map", "solve_fixed_point",
    "local_perturb",
    "MetricFamily", "FamilySolution", "HorizonCollapse", "build_family",
    "build_manifold_family", "chart_window", "windowed_increment",
    "solve_family", "stability_gap", "time_regularity_probe",
    "Atlas", "GlobalSolution", "StageFailure", "base_embedding", "build_atlas",
    "decompose_metric", "glue_solve", "make_mesh", "pullback_residual",
    "solution_residuals",
    "Scenario", "load_scenario", "scenario_hash",
    "__version__",
]
