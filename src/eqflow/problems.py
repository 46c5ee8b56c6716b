"""The ten block-separable benchmark problems ex1..ex10.

Each problem minimizes a separable polynomial objective subject to a
block-banded system of linear equality constraints.  Objectives and
analytic gradients are vectorized over the block structure; constraint
matrices are assembled sparse (CSR), and the projection layer factors
their blocks one component at a time.  ``ex1`` and ``ex3`` have
closed-form optima; the other problems carry reference objective values
at their benchmark sizes.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .projection import ConstraintSystem, factor, make_feasible, project_gradient


class BadDimensionError(ValueError):
    """The requested dimension violates the problem's divisibility rule."""


PROBLEM_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex7", "ex8",
               "ex9", "ex10")

# Benchmark sizes used for the reference results.
PAPER_DIMS = {"ex1": 5000, "ex2": 4800, "ex3": 4800, "ex4": 5000,
              "ex5": 5000, "ex6": 4800, "ex7": 5000, "ex8": 4800,
              "ex9": 5000, "ex10": 4800}
DESK_DIM = 120

# Closed-form per-block optima (ex1, ex3) and reference objective values at
# the benchmark sizes (others; ex8 has solver-dependent local minima).
_EX1_BLOCK = (40.0 / 11.0, 4.0 / 11.0)
_EX1_BLOCK_F = 160.0 / 11.0
_EX3_BLOCK = (16.0 / 15.0, 1.0 / 3.0, -11.0 / 15.0)
_EX3_BLOCK_F = 402.0 / 225.0
_REFERENCE_F = {"ex2": 5.78e3, "ex4": 493.79, "ex5": 432.15, "ex6": 2.06e3,
                "ex7": 5.94e4, "ex9": 2.21e5, "ex10": 2.00}


@dataclass(frozen=True)
class Problem:
    """A ready-to-solve instance: callbacks, constraints and start point."""

    name: str
    n: int
    m: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    cs: ConstraintSystem
    x0: np.ndarray
    known_f_star: Optional[float] = None
    f_star_note: Optional[str] = None


def _block_constraints(n, rows, rhs):
    """Block-banded A: each width-w block of variables gets `rows` rows."""
    w = len(rows[0])
    nb = n // w
    r = len(rows)
    data, ri, ci = [], [], []
    for j, coefs in enumerate(rows):
        for t, c in enumerate(coefs):
            if c != 0.0:
                data.append(np.full(nb, float(c)))
                ri.append(np.arange(nb) * r + j)
                ci.append(np.arange(nb) * w + t)
    A = sp.csr_matrix((np.concatenate(data),
                       (np.concatenate(ri), np.concatenate(ci))),
                      shape=(nb * r, n))
    b = np.tile(np.asarray(rhs, dtype=float), nb)
    return A, b


def _ex1(n):
    def objective(x):
        return float(np.sum(x[0::2] ** 2 + 10.0 * x[1::2] ** 2))

    def gradient(x):
        out = np.empty_like(x)
        out[0::2] = 2.0 * x[0::2]
        out[1::2] = 20.0 * x[1::2]
        return out

    A, b = _block_constraints(n, [(1, 1)], [4.0])
    return objective, gradient, A, b, np.full(n, 2.0)


def _ex2(n):
    def objective(x):
        return float(np.sum((x[0::2] - 2.0) ** 2 + 2.0 * (x[1::2] - 1.0) ** 2)) - 5.0

    def gradient(x):
        out = np.empty_like(x)
        out[0::2] = 2.0 * (x[0::2] - 2.0)
        out[1::2] = 4.0 * (x[1::2] - 1.0)
        return out

    A, b = _block_constraints(n, [(1, 4, 2)], [3.0])
    x0 = np.zeros(n)
    x0[:3] = (-0.5, 1.5, 1.0)
    return objective, gradient, A, b, x0


def _ex3(n):
    def objective(x):
        return float(np.sum(x ** 2))

    def gradient(x):
        return 2.0 * x

    A, b = _block_constraints(n, [(1, 2, 1), (2, -1, -3)], [1.0, 4.0])
    return objective, gradient, A, b, np.tile([1.0, 0.5, -1.0], n // 3)


def _ex4(n):
    def objective(x):
        return float(np.sum(x[0::2] ** 2 + x[1::2] ** 6)) - 1.0

    def gradient(x):
        out = np.empty_like(x)
        out[0::2] = 2.0 * x[0::2]
        out[1::2] = 6.0 * x[1::2] ** 5
        return out

    A, b = _block_constraints(n, [(1, 1)], [1.0])
    return objective, gradient, A, b, np.ones(n)


def _ex5(n):
    def objective(x):
        return float(np.sum((x[0::2] - 2.0) ** 4 + 2.0 * (x[1::2] - 1.0) ** 6)) - 5.0

    def gradient(x):
        out = np.empty_like(x)
        out[0::2] = 4.0 * (x[0::2] - 2.0) ** 3
        out[1::2] = 12.0 * (x[1::2] - 1.0) ** 5
        return out

    A, b = _block_constraints(n, [(1, 4)], [3.0])
    return objective, gradient, A, b, np.tile([-1.0, 1.0], n // 2)


def _ex6(n):
    def objective(x):
        return float(np.sum(x[0::3] ** 2 + x[1::3] ** 4 + x[2::3] ** 6))

    def gradient(x):
        out = np.empty_like(x)
        out[0::3] = 2.0 * x[0::3]
        out[1::3] = 4.0 * x[1::3] ** 3
        out[2::3] = 6.0 * x[2::3] ** 5
        return out

    A, b = _block_constraints(n, [(1, 2, 1), (2, -1, -3)], [1.0, 4.0])
    x0 = np.zeros(n)
    x0[0] = 2.0
    return objective, gradient, A, b, x0


def _ex7(n):
    def objective(x):
        return float(np.sum(x[0::2] ** 4 + 3.0 * x[1::2] ** 2))

    def gradient(x):
        out = np.empty_like(x)
        out[0::2] = 4.0 * x[0::2] ** 3
        out[1::2] = 6.0 * x[1::2]
        return out

    A, b = _block_constraints(n, [(1, 1)], [4.0])
    x0 = np.zeros(n)
    x0[:2] = 2.0
    return objective, gradient, A, b, x0


def _ex8(n):
    def objective(x):
        u, v, w = x[0::3], x[1::3], x[2::3]
        return float(np.sum(u ** 2 + u ** 2 * w ** 2 + 2.0 * u * v
                            + v ** 4 + 8.0 * v))

    def gradient(x):
        u, v, w = x[0::3], x[1::3], x[2::3]
        out = np.empty_like(x)
        out[0::3] = 2.0 * u + 2.0 * u * w ** 2 + 2.0 * v
        out[1::3] = 2.0 * u + 4.0 * v ** 3 + 8.0
        out[2::3] = 2.0 * u ** 2 * w
        return out

    A, b = _block_constraints(n, [(2, 5, 1)], [3.0])
    x0 = np.zeros(n)
    x0[0] = 1.5
    return objective, gradient, A, b, x0


def _ex9(n):
    def objective(x):
        return float(np.sum(x[0::2] ** 4 + 10.0 * x[1::2] ** 6))

    def gradient(x):
        out = np.empty_like(x)
        out[0::2] = 4.0 * x[0::2] ** 3
        out[1::2] = 60.0 * x[1::2] ** 5
        return out

    A, b = _block_constraints(n, [(1, 1)], [4.0])
    return objective, gradient, A, b, np.full(n, 2.0)


def _ex10(n):
    def objective(x):
        return float(np.sum(x[0::3] ** 8 + x[1::3] ** 6 + x[2::3] ** 2))

    def gradient(x):
        out = np.empty_like(x)
        out[0::3] = 8.0 * x[0::3] ** 7
        out[1::3] = 6.0 * x[1::3] ** 5
        out[2::3] = 2.0 * x[2::3]
        return out

    A, b = _block_constraints(n, [(1, 2, 2)], [1.0])
    return objective, gradient, A, b, np.tile([1.0, 0.0, 0.0], n // 3)


_FACTORIES = {"ex1": _ex1, "ex2": _ex2, "ex3": _ex3, "ex4": _ex4,
              "ex5": _ex5, "ex6": _ex6, "ex7": _ex7, "ex8": _ex8,
              "ex9": _ex9, "ex10": _ex10}

# Smallest repeating unit of objective and constraints together: ex2 pairs a
# period-2 objective with period-3 constraints.
_DIVISOR = {"ex1": 2, "ex2": 6, "ex3": 3, "ex4": 2, "ex5": 2, "ex6": 3,
            "ex7": 2, "ex8": 3, "ex9": 2, "ex10": 3}


def known_optima(problem_id: str, n: int) -> Optional[Tuple[Optional[np.ndarray], float]]:
    """Closed-form optimum for ex1/ex3; reference value at benchmark size else.

    Returns ``(x_star_pattern, f_star)`` where the pattern is the repeating
    block of the minimizer (``None`` when only the objective value is
    known), or ``None`` when nothing reliable is available (ex8, or a
    reference-only problem away from its benchmark size).
    """
    if problem_id == "ex1":
        return np.asarray(_EX1_BLOCK), (n // 2) * _EX1_BLOCK_F
    if problem_id == "ex3":
        return np.asarray(_EX3_BLOCK), (n // 3) * _EX3_BLOCK_F
    ref = _REFERENCE_F.get(problem_id)
    if ref is not None and n == PAPER_DIMS[problem_id]:
        return None, ref
    return None


def build(problem_id: str, n: int) -> Problem:
    """Construct a benchmark problem at dimension n.

    Raises
    ------
    BadDimensionError
        Unknown id, or n not a positive multiple of the problem's block
        period (2 for pair problems, 3 for triples, 6 for ex2).
    """
    if problem_id not in _FACTORIES:
        raise BadDimensionError(f"unknown problem id {problem_id!r}")
    div = _DIVISOR[problem_id]
    if n < div or n % div != 0:
        raise BadDimensionError(
            f"{problem_id} needs n to be a positive multiple of {div}, got {n}"
        )
    objective, gradient, A, b, x0 = _FACTORIES[problem_id](n)
    opt = known_optima(problem_id, n)
    if opt is None:
        f_star, note = None, None
    elif opt[0] is not None:
        f_star, note = opt[1], "closed form (separable blocks)"
    else:
        f_star, note = opt[1], "reference value at benchmark size"
    return Problem(name=problem_id, n=n, m=A.shape[0], objective=objective,
                   gradient=gradient, cs=ConstraintSystem(A=A, b=b), x0=x0,
                   known_f_star=f_star, f_star_note=note)


@dataclass(frozen=True)
class GradientCheckReport:
    name: str
    n: int
    num_points: int
    max_rel_error: float
    coord_errors: np.ndarray  # worst guarded relative error per coordinate


def gradient_check(problem: Problem, num_points: int = 10,
                   seed: int = 0) -> GradientCheckReport:
    """Compare the analytic gradient against central differences.

    Checks at the projected start point plus ``num_points - 1`` feasible
    perturbations of it (random directions projected onto the constraint
    null space). The per-coordinate step is ``1e-6 * (1 + |x_i|)`` and the
    error metric is ``|fd - g| / (1 + |g|)``.
    """
    proj = factor(problem.cs)
    base = make_feasible(proj, problem.x0)
    rng = np.random.default_rng(seed)
    n = problem.n
    worst = np.zeros(n)
    for j in range(num_points):
        x = base
        if j > 0:
            x = base + project_gradient(proj, rng.normal(scale=0.25, size=n))
        g = np.asarray(problem.gradient(x), dtype=float)
        fd = np.empty(n)
        for i in range(n):
            h = 1e-6 * (1.0 + abs(x[i]))
            e = np.zeros(n)
            e[i] = h
            fd[i] = (problem.objective(x + e) - problem.objective(x - e)) / (2.0 * h)
        err = np.abs(fd - g) / (1.0 + np.abs(g))
        worst = np.maximum(worst, err)
    return GradientCheckReport(name=problem.name, n=n, num_points=num_points,
                               max_rel_error=float(worst.max()),
                               coord_errors=worst)
