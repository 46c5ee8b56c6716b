"""The ten block-separable benchmark problems ex1..ex10, defined as data.

Each problem minimizes a separable polynomial objective subject to a
block-banded system of linear equality constraints.  ``_TABLE`` is the
definition: one entry per problem gives the monomial terms of an
objective block, one block of constraint rows, the start point, the
benchmark size and the known optimum.  One
evaluator turns an entry into the objective, its gradient and the
per-block objective values, vectorized over the blocks; the gradient is
derived from the terms by one rule, not written by hand, so
``gradient_check`` tests that rule.  The check reads the per-block values
(``Problem.block_values``): it moves one coordinate of every block at once,
so a point costs 2·width block evaluations instead of 2n objective calls,
and each difference carries the rounding error of one block, not of the
whole sum.  Constraint matrices are assembled sparse (CSR), and the
projection layer factors their blocks one component at a time.  ``ex1``
and ``ex3`` have closed-form optima; the other problems carry reference
objective values at their benchmark sizes.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .projection import ConstraintSystem, factor, make_feasible, project_gradient


class BadDimensionError(ValueError):
    """The requested dimension violates the problem's divisibility rule."""


DESK_DIM = 120


@dataclass(frozen=True)
class Problem:
    """A ready-to-solve instance: callbacks, constraints and start point.

    The dimension ``n`` is that of ``cs``; ``cs.m`` counts the constraints.
    ``block_values``, when set, splits the objective into blocks of w
    consecutive variables, for some w that divides n: ``block_values(x)``
    has length n/w, its entry k depends on ``x[k*w:(k+1)*w]`` alone, and
    ``objective(x)`` is a constant plus its sum. ``build`` sets it; a
    problem without it is one block of width n to ``gradient_check``.
    """

    name: str
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    cs: ConstraintSystem
    x0: np.ndarray
    block_values: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def n(self) -> int:
        return self.cs.n


def _block_constraints(n, rows, rhs):
    """Block-banded A: each width-w block of variables gets `rows` rows."""
    rows = np.asarray(rows, dtype=float)
    r, w = rows.shape
    j, t = np.nonzero(rows)
    blocks = np.arange(n // w)[:, None]
    A = sp.csr_matrix((np.tile(rows[j, t], n // w),
                       ((blocks * r + j).ravel(), (blocks * w + t).ravel())),
                      shape=(n // w * r, n))
    return A, np.tile(np.asarray(rhs, dtype=float), n // w)


class _Spec(NamedTuple):
    """A problem as data: objective terms, constraints, start, optimum.

    The objective is ``const`` plus the sum, over blocks of ``width``
    consecutive variables, of the ``terms`` ``(c, (e_0, .., e_{width-1}))``,
    each ``c * prod (x_k - shift_k) ** e_k`` with some e_k > 0 (a missing
    shift is 0; kept unexpanded, as expanding would cancel). ``rows`` and
    ``rhs`` are one block of constraints for ``_block_constraints``. x0
    repeats ``start``, then ``head`` overwrites its first entries.
    ``paper_n`` is the benchmark size. A row has either an ``optimum``, the
    closed-form minimizer of one constraint block and its value, or a
    ``reference``, the objective's reference value at ``paper_n``.
    """

    width: int
    terms: Tuple[Tuple[float, Tuple[int, ...]], ...]
    rows: Tuple[Tuple[float, ...], ...]
    rhs: Tuple[float, ...]
    start: Tuple[float, ...]
    paper_n: int
    head: Tuple[float, ...] = ()
    shift: Tuple[float, ...] = ()
    const: float = 0.0
    optimum: Optional[Tuple[Tuple[float, ...], float]] = None
    reference: Optional[float] = None


def _monomial(coef, exponents):
    """``(c, ((k, e), ...))`` for ``c * prod y_k ** e``, every e >= 1; c is
    None, and the product skips it, for a unit coefficient."""
    factors = tuple((k, e) for k, e in enumerate(exponents) if e)
    return (None if coef == 1 and factors else float(coef)), factors


def _sum(monomials, y):
    """Sum of the monomials over the block columns y, or None if empty.

    Products run left to right, coefficient first, ``y_k`` for ``y_k ** 1``:
    bit for bit the formula written out as one numpy expression.
    """
    total = None
    for coef, factors in monomials:
        value = coef
        for k, e in factors:
            power = y[k] if e == 1 else y[k] ** e
            value = power if value is None else value * power
        total = value if total is None else total + value
    return total


def _evaluator(spec):
    """Objective, gradient and per-block values of a table entry, vectorized
    over the blocks.

    The gradient is derived by one rule: d/dx_k of ``c * x_k ** e * r`` is
    ``(c * e) * x_k ** (e - 1) * r``. ``block_values`` returns the objective
    term of every block, without ``const``; the objective sums the same
    array.
    """
    w, const = spec.width, spec.const
    shifted = [(k, s) for k, s in enumerate(spec.shift) if s]
    terms = [_monomial(c, exponents) for c, exponents in spec.terms]
    derived = [[_monomial(c * e[k], e[:k] + (e[k] - 1,) + e[k + 1:])
                for c, e in spec.terms if e[k]] for k in range(w)]

    def columns(x):
        y = [x[k::w] for k in range(w)]
        for k, s in shifted:
            y[k] = y[k] - s
        return y

    def objective(x):
        f = float(_sum(terms, columns(x)).sum())
        return f + const if const else f

    def gradient(x):
        y = columns(x)
        out = np.empty_like(x)
        for k, monomials in enumerate(derived):
            g = _sum(monomials, y)
            out[k::w] = 0.0 if g is None else g
        return out

    def block_values(x):
        return _sum(terms, columns(x))

    return objective, gradient, block_values


_TABLE = {
    "ex1": _Spec(2, ((1, (2, 0)), (10, (0, 2))), ((1, 1),), (4.0,), (2.0,),
                 5000, optimum=((40.0 / 11.0, 4.0 / 11.0), 160.0 / 11.0)),
    "ex2": _Spec(2, ((1, (2, 0)), (2, (0, 2))), ((1, 4, 2),), (3.0,), (0.0,),
                 4800, head=(-0.5, 1.5, 1.0), shift=(2.0, 1.0), const=-5.0,
                 reference=5.78e3),
    "ex3": _Spec(1, ((1, (2,)),), ((1, 2, 1), (2, -1, -3)), (1.0, 4.0),
                 (1.0, 0.5, -1.0), 4800,
                 optimum=((16.0 / 15.0, 1.0 / 3.0, -11.0 / 15.0), 402.0 / 225.0)),
    "ex4": _Spec(2, ((1, (2, 0)), (1, (0, 6))), ((1, 1),), (1.0,), (1.0,),
                 5000, const=-1.0, reference=493.79),
    "ex5": _Spec(2, ((1, (4, 0)), (2, (0, 6))), ((1, 4),), (3.0,), (-1.0, 1.0),
                 5000, shift=(2.0, 1.0), const=-5.0, reference=432.15),
    "ex6": _Spec(3, ((1, (2, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 6))),
                 ((1, 2, 1), (2, -1, -3)), (1.0, 4.0), (0.0,), 4800,
                 head=(2.0,), reference=2.06e3),
    "ex7": _Spec(2, ((1, (4, 0)), (3, (0, 2))), ((1, 1),), (4.0,), (0.0,),
                 5000, head=(2.0, 2.0), reference=5.94e4),
    "ex8": _Spec(3, ((1, (2, 0, 0)), (1, (2, 0, 2)), (2, (1, 1, 0)),
                     (1, (0, 4, 0)), (8, (0, 1, 0))), ((2, 5, 1),), (3.0,),
                 (0.0,), 4800, head=(1.5,), reference=-12124.458370231),
    "ex9": _Spec(2, ((1, (4, 0)), (10, (0, 6))), ((1, 1),), (4.0,), (2.0,),
                 5000, reference=2.21e5),
    "ex10": _Spec(3, ((1, (8, 0, 0)), (1, (0, 6, 0)), (1, (0, 0, 2))),
                  ((1, 2, 2),), (1.0,), (1.0, 0.0, 0.0), 4800, reference=2.00),
}
PROBLEM_IDS = tuple(_TABLE)
PAPER_DIMS = {pid: spec.paper_n for pid, spec in _TABLE.items()}
_EVALUATORS = {pid: _evaluator(spec) for pid, spec in _TABLE.items()}


def known_optima(problem_id: str, n: int) -> Optional[Tuple[Optional[np.ndarray], float]]:
    """Closed-form optimum (ex1, ex3) at any n, else reference value at the
    benchmark size, as the problem's table entry states them.

    Returns ``(x_star_pattern, f_star)`` where the pattern is the repeating
    block of the minimizer (``None`` when only the objective value is
    known), or ``None`` when nothing is known (a reference-only problem
    away from its benchmark size, or an unknown id).
    """
    spec = _TABLE.get(problem_id)
    if spec is None:
        return None
    if spec.optimum is not None:
        block, f_block = spec.optimum
        return np.asarray(block), (n // len(block)) * f_block
    if n == spec.paper_n:
        return None, spec.reference
    return None


def build(problem_id: str, n: int) -> Problem:
    """Construct a benchmark problem at dimension n.

    Raises
    ------
    BadDimensionError
        Unknown id, or n not a positive multiple of the problem's block
        period (2 for pair problems, 3 for triples, 6 for ex2).
    """
    spec = _TABLE.get(problem_id)
    if spec is None:
        raise BadDimensionError(f"unknown problem id {problem_id!r}")
    div = math.lcm(spec.width, len(spec.rows[0]))
    if n < div or n % div != 0:
        raise BadDimensionError(
            f"{problem_id} needs n to be a positive multiple of {div}, got {n}"
        )
    objective, gradient, block_values = _EVALUATORS[problem_id]
    A, b = _block_constraints(n, spec.rows, spec.rhs)
    x0 = np.resize(np.asarray(spec.start, dtype=float), n)
    x0[:len(spec.head)] = spec.head
    return Problem(name=problem_id, objective=objective, gradient=gradient,
                   cs=ConstraintSystem(A=A, b=b), x0=x0,
                   block_values=block_values)


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
    null space). The per-coordinate step is ``h_i = 1e-6 * (1 + |x_i|)``
    and the error metric is ``|fd - g| / (1 + |g|)``.

    The differences are grouped by block (Curtis, Powell & Reid, 1974):
    coordinate i of every block of width w moves at once, and each block's
    own value gives that block's difference. A table problem, with
    ``problem.block_values``, costs 2w block evaluations per point (plus
    one to count the blocks); a problem without it is one block of width n
    and costs 2n objective calls per point, one difference per coordinate.
    A block's difference is also more accurate than one of the whole sum,
    which carries the rounding error of all n/w blocks. The two perturbed
    points are reused from call to call, so a callback must not keep its
    argument.
    """
    proj = factor(problem.cs)
    base = make_feasible(proj, problem.x0)
    rng = np.random.default_rng(seed)
    n = problem.n
    if problem.block_values is None:  # the whole objective is one block
        values, w = problem.objective, n
    else:
        values = problem.block_values
        w = n // len(values(base))
    worst = np.zeros(n)
    for j in range(num_points):
        x = base
        if j > 0:
            x = base + project_gradient(proj, rng.normal(scale=0.25, size=n))
        g = np.asarray(problem.gradient(x), dtype=float)
        h = 1e-6 * (1.0 + np.abs(x))
        plus, minus = x + h, x - h
        up, down = x.copy(), x.copy()
        fd = np.empty(n)
        for i in range(w):
            up[i::w], down[i::w] = plus[i::w], minus[i::w]
            fd[i::w] = values(up) - values(down)
            up[i::w] = down[i::w] = x[i::w]
        fd /= 2.0 * h
        err = np.abs(fd - g) / (1.0 + np.abs(g))
        worst = np.maximum(worst, err)
    return GradientCheckReport(name=problem.name, n=n, num_points=num_points,
                               max_rel_error=float(worst.max()),
                               coord_errors=worst)
