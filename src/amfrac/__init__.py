"""Rate-independent phase-field fracture by alternate minimization with
adaptive arc-length time stepping, plus the diagnostics that certify the
scheme's structural properties on computed traces."""

__version__ = "0.1.0"

from .assembly import (
    assemble_K,
    field_norm_V,
    grad_u,
    grad_z,
    norm_quadrature_weights,
    reaction_force,
    total_energy,
)
from .diagnostics import (
    BalanceReport,
    InterpolantView,
    check_trace_invariants,
    complementarity_check,
    dual_distance,
    energy_balance,
    normalization_residuals,
    sample_interpolants,
)
from .driver import StepRecord, Trace, am_loop, run, run_pure_am, time_update
from .mesh import Mesh, build_ct_mesh, build_lshape_mesh
from .model import (
    LoadProgram,
    MaterialModel,
    NormSpec,
    SchemeParams,
    degradation,
    dissipation_R,
    fracture_density,
    voigt_elasticity,
)
from .solvers import SolverFailure, ZSolveReport, solve_u, solve_z
from .zerodim import ZeroDimModel, brute_force_z_step, run_zero_dim

__all__ = [
    "assemble_K", "field_norm_V", "grad_u", "grad_z", "reaction_force",
    "total_energy",
    "BalanceReport", "InterpolantView", "check_trace_invariants",
    "complementarity_check", "dual_distance", "energy_balance",
    "normalization_residuals", "sample_interpolants",
    "StepRecord", "Trace", "am_loop", "run", "run_pure_am", "time_update",
    "Mesh", "build_ct_mesh", "build_lshape_mesh", "norm_quadrature_weights",
    "LoadProgram", "MaterialModel", "NormSpec", "SchemeParams",
    "degradation", "dissipation_R", "fracture_density", "voigt_elasticity",
    "SolverFailure", "ZSolveReport", "solve_u", "solve_z",
    "ZeroDimModel", "brute_force_z_step", "run_zero_dim",
]
