"""The ten block-separable benchmark problems ex1..ex10, defined as data.

Each problem minimizes a separable polynomial objective subject to a
block-banded system of linear equality constraints.  ``_TABLE`` is the
definition: one entry per problem gives the monomial terms of an
objective block, one block of constraint rows, the start point, the
benchmark size and the known optimum.  One evaluator turns an entry into
the objective, its gradient and the per-block objective values,
vectorized over the blocks; the gradient is derived from the terms by one
rule, not written by hand, so ``gradient_check`` tests that rule.
Integer powers are formed by square-and-multiply rather than numpy's
``**``, whose integer exponents above 2 on a negative base take libm's
slow ``pow``: exact for exponents 1 and 2, a few ulps from ``pow`` above.
The check reads the per-block values (``Problem.block_values``): it moves
one coordinate of every block at once, and each difference carries the
rounding error of one block, not of the whole sum.  Constraint matrices
are assembled sparse (CSR), and the projection layer factors their blocks
one component at a time.  ``ex1`` and ``ex3`` have closed-form optima;
the other problems carry reference objective values at their benchmark
sizes.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .projection import (ConstraintSystem, CSRMatrix, _start_point, _to_null_space,
                         _vector, make_feasible)


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
    ``objective(x)`` is a constant plus its sum. It also takes a stack of
    points, an ``(..., n)`` array, and maps it to ``(..., n/w)``, each row
    bit for bit that of its point alone; so does ``gradient`` when it is
    set, mapping ``(..., n)`` to ``(..., n)``. ``gradient_check`` passes
    both ``(rows, n)`` stacks. ``build`` sets it; a problem without it is
    one block of width n to ``gradient_check``, and its gradient gets one
    point at a time. ``x0`` is checked as
    ``make_feasible`` checks it and kept as a read-only float copy.
    """

    name: str
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    cs: ConstraintSystem
    x0: np.ndarray
    block_values: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        x0 = _start_point(self.x0, self.n).copy()
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.cs.n


def _block_constraints(n, rows, rhs):
    """Block-banded A: each width-w block of variables gets `rows` rows."""
    rows = np.asarray(rows, dtype=float)
    r, w = rows.shape
    j, t = np.nonzero(rows)
    k = n // w
    indptr = np.concatenate(([0], np.cumsum(np.tile(np.bincount(j, minlength=r), k))))
    A = CSRMatrix(indptr, (np.arange(k)[:, None] * w + t).ravel(),
                  np.tile(rows[j, t], k), (k * r, n))
    return A, np.tile(np.asarray(rhs, dtype=float), k)


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


def _power(v, e):
    """``v ** e`` for an integer e >= 1 by square-and-multiply.

    numpy's ``**`` sends an integer exponent above 2 on a negative base down
    libm's slow ``pow`` path. Square-and-multiply (Knuth, TAOCP vol. 2,
    4.6.3) takes one multiply per bit of e and one more per set bit after
    the first. For e = 1 it returns ``v`` itself and for e = 2 ``v * v``, bit
    for bit what ``**`` gives. For e >= 3 it forms a product of e copies of
    v, whose relative error is at most about (e - 1) * eps_mach / 2
    (Higham, Accuracy and Stability, 3.1): a few ulps from ``pow``.
    """
    result = None
    while True:
        if e & 1:
            result = v if result is None else result * v
        e >>= 1
        if not e:
            return result
        v = v * v


def _sum(monomials, y):
    """Sum of the monomials over the block columns y, or None if empty.

    Products run left to right, coefficient first. Each power is formed by
    square-and-multiply (``_power``): exact as written for e <= 2, a few
    ulps from ``pow`` for e >= 3.
    """
    total = None
    for coef, factors in monomials:
        value = coef
        for k, e in factors:
            power = _power(y[k], e)
            value = power if value is None else value * power
        total = value if total is None else total + value
    return total


def _evaluator(spec):
    """Objective, gradient and per-block values of a table entry, vectorized
    over the blocks; ``gradient`` and ``block_values`` also over a stack of
    points.

    The gradient is derived by one rule: d/dx_k of ``c * x_k ** e * r`` is
    ``(c * e) * x_k ** (e - 1) * r``. ``block_values`` returns the objective
    term of every block, without ``const``; the objective is ``const`` plus
    its sum.
    """
    w, const = spec.width, spec.const
    shifted = [(k, s) for k, s in enumerate(spec.shift) if s]
    terms = [_monomial(c, exponents) for c, exponents in spec.terms]
    derived = [[_monomial(c * e[k], e[:k] + (e[k] - 1,) + e[k + 1:])
                for c, e in spec.terms if e[k]] for k in range(w)]

    def columns(x):
        # a stack of points, flattened, holds entry k of every block of
        # every point at [k::w], since w divides n
        flat = x.reshape(-1)
        y = [flat[k::w] for k in range(w)]
        for k, s in shifted:
            y[k] = y[k] - s
        return y

    def block_values(x):
        return _sum(terms, columns(x)).reshape(x.shape[:-1] + (-1,))

    def objective(x):
        f = float(block_values(x).sum())
        return f + const if const else f

    def gradient(x):
        y = columns(x)
        flat = np.empty(x.size)  # laid out as columns' flat x
        for k, monomials in enumerate(derived):
            g = _sum(monomials, y)
            flat[k::w] = 0.0 if g is None else g
        # solve passes single points; for them the reshape would add 2-3%
        # to a call at n = 120
        return flat if x.ndim == 1 else flat.reshape(x.shape)

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


GRAD_TOL = 1e-5  # the largest relative error a gradient check passes

# float64 entries in one stack of check points (32 KiB); from n = _STACK up
# a stack holds one point
_STACK = 1 << 12


@dataclass(frozen=True)
class GradientCheckReport:
    name: str
    n: int
    num_points: int
    max_rel_error: float
    coord_errors: np.ndarray  # worst guarded relative error per coordinate


def _objective_rows(objective):
    """The objective as one block of width n: ``(rows, n)`` to ``(rows, 1)``."""
    return lambda stack: np.array([[float(objective(x))] for x in stack])


def _gradient_rows(gradient):
    """A gradient of one point as one of stacks, ``(rows, n)`` to
    ``(rows, n)``: a call per ``(n,)`` row, each result checked as
    ``solve`` checks it."""
    return lambda stack: np.array([_vector(np.asarray(gradient(x)).ravel(),
                                           stack.shape[1], "gradient")
                                   for x in stack])


def _stack_values(name, values, stack, blocks):
    """``values`` of a stack of points, checked to have one row of
    ``blocks`` values per point; ``blocks=None`` accepts any count that
    divides n (the first call, which counts the blocks)."""
    result = values(stack)
    shape = np.shape(result)
    rows, n = stack.shape
    if blocks is None and len(shape) == 2 and shape[1] and n % shape[1] == 0:
        blocks = shape[1]
    if shape != (rows, blocks):
        expected = (f"({rows}, {blocks})" if blocks else
                    f"({rows}, n/w) for a block width w that divides n = {n}")
        raise ValueError(f"{name}: block_values of a {stack.shape} "
                         f"stack of points has shape {shape}, expected {expected}")
    return result


def gradient_check(problem: Problem, num_points: int = 10,
                   seed: int = 0) -> GradientCheckReport:
    """Compare the analytic gradient against central differences.

    Checks at the projected start point plus ``num_points - 1`` feasible
    perturbations of it (random directions projected onto the constraint
    null space). The per-coordinate step is ``h_i = 1e-6 * (1 + |x_i|)``
    and the error metric is ``|fd - g| / (1 + |g|)``; the check passes
    when the worst error is at most ``GRAD_TOL``.

    The differences are grouped by block (Curtis, Powell & Reid, 1974):
    coordinate i of every block of width w moves at once, and each block's
    own value gives that block's difference. A block's difference is also
    more accurate than one of the whole sum, which carries the rounding
    error of all n/w blocks.

    The points are checked in stacks of ``max(1, _STACK // n)``: below
    n = 4096 each array of a stack (the points, their gradients and steps,
    each moved copy) holds at most 32 KiB, and from n = 4096 up a stack is
    one point. A stack costs 2w ``block_values`` calls, each on the whole
    ``(rows, n)`` stack, and the first stack one more to count the blocks:
    1 + 2w calls when the points form one stack. A result that is not one
    row of n/w values per point raises ValueError. The gradients of a
    stack are one ``gradient`` call on it too; a complex result raises
    TypeError, one not of shape ``(rows, n)`` DimensionMismatchError.
    Without ``block_values`` the objective is one block of width n, and a
    point costs 2n objective calls and one gradient call, each on one
    ``(n,)`` row. The perturbations of a stack are drawn by one
    ``rng.normal`` call, which gives the stream that one draw per point
    gives, and projected by one call. A ``num_points`` below 1 raises
    ValueError.
    """
    if num_points < 1:
        raise ValueError(f"num_points must be positive, got {num_points}")
    cs = problem.cs
    base = make_feasible(cs, problem.x0)
    rng = np.random.default_rng(seed)
    n = problem.n
    rows = max(1, _STACK // n)
    values, gradient, w = (
        (_objective_rows(problem.objective), _gradient_rows(problem.gradient), n)
        if problem.block_values is None else
        (problem.block_values, problem.gradient, None))
    worst = np.zeros(n)
    for start in range(0, num_points, rows):
        stack = (min(rows, num_points - start), n)
        x = np.tile(base, (stack[0], 1))
        moved = stack[0] - (start == 0)  # the points other than the start point
        if moved:
            x[-moved:] += _to_null_space(
                cs, rng.normal(scale=0.25, size=(moved, n)), False)
        g = _vector(gradient(x), stack, "gradient")
        if w is None:
            w = n // _stack_values(problem.name, values, x, None).shape[1]
        # flattened, the stack holds entry i of every block of every point
        # at x[i::w], since w divides n
        x, g = x.reshape(-1), g.reshape(-1)
        h = 1e-6 * (1.0 + np.abs(x))
        fd = np.empty_like(x)
        for i in range(w):
            up, down = x.copy(), x.copy()
            up[i::w] += h[i::w]
            down[i::w] -= h[i::w]
            up, down = up.reshape(stack), down.reshape(stack)
            fd[i::w] = (_stack_values(problem.name, values, up, n // w)
                        - _stack_values(problem.name, values, down, n // w)).reshape(-1)
        fd /= 2.0 * h
        err = np.abs(fd - g) / (1.0 + np.abs(g))
        np.maximum(worst, err.reshape(stack).max(axis=0), out=worst)
    return GradientCheckReport(name=problem.name, n=n, num_points=num_points,
                               max_rel_error=float(worst.max()),
                               coord_errors=worst)
