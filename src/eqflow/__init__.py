"""Continuation solver for minimization under linear equality constraints."""

from .problems import (DESK_DIM, PAPER_DIMS, PROBLEM_IDS, BadDimensionError,
                       GradientCheckReport, Problem, build, gradient_check,
                       known_optima)
from .projection import (ConstraintSystem, CSRMatrix, DimensionMismatchError,
                         NonFiniteError, RankDeficientError, make_feasible,
                         multipliers, project_gradient, residuals)
from .solver import IterationRecord, SolveResult, SolverConfig, Status, solve

__version__ = "0.1.0"

__all__ = [
    "ConstraintSystem", "CSRMatrix", "project_gradient", "make_feasible",
    "multipliers", "residuals",
    "DimensionMismatchError", "NonFiniteError", "RankDeficientError",
    "SolverConfig", "SolveResult", "IterationRecord", "Status", "solve",
    "Problem", "build", "gradient_check", "known_optima",
    "BadDimensionError", "GradientCheckReport",
    "PROBLEM_IDS", "PAPER_DIMS", "DESK_DIM",
    "__version__",
]
