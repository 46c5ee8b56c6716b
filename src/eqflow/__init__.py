"""Continuation solver for minimization under linear equality constraints."""

from .direction import CurvaturePair, curvature_gate, direction
from .problems import (DESK_DIM, PAPER_DIMS, PROBLEM_IDS, BadDimensionError,
                       GradientCheckReport, Problem, build, gradient_check,
                       known_optima)
from .projection import (ConstraintSystem, DimensionMismatchError, Projector,
                         RankDeficientError, factor, make_feasible,
                         multipliers, project_gradient, residuals)
from .solver import (IterationRecord, SolveResult, SolverConfig, Status,
                     model_decrease, ratio, solve, trial_step, update_dt)

__version__ = "0.1.0"

__all__ = [
    "ConstraintSystem", "Projector", "factor", "project_gradient",
    "make_feasible", "multipliers", "residuals",
    "DimensionMismatchError", "RankDeficientError",
    "CurvaturePair", "curvature_gate", "direction",
    "SolverConfig", "SolveResult", "IterationRecord", "Status", "solve",
    "trial_step", "model_decrease", "ratio", "update_dt",
    "Problem", "build", "gradient_check", "known_optima",
    "BadDimensionError", "GradientCheckReport",
    "PROBLEM_IDS", "PAPER_DIMS", "DESK_DIM",
    "__version__",
]
