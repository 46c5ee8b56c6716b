"""The ten block-separable benchmark problems ex1..ex10, defined as data.

Each problem minimizes a separable polynomial objective subject to a
block-banded system of linear equality constraints.  ``_TABLE`` is the
definition: one entry per problem gives the monomial terms of an
objective block, one block of constraint rows, the start point, the
benchmark size and the known optimum.  Each entry is compiled once, when
it is first built, into straight-line float64 numpy code for the
per-block objective values and the gradient, vectorized over the blocks
(``_program``). The gradient is derived from the terms by one rule, not
written by hand, so ``gradient_check`` tests that rule. The check reads
the per-block values (``Problem.block_values``): it moves one coordinate
of every block at once, and each difference carries the rounding error
of one block, not of the whole sum.  Constraint matrices are assembled
sparse (CSR), and the projection layer factors their blocks one
component at a time.  ``ex1`` and ``ex3`` have closed-form optima; the
other problems carry reference objective values at their benchmark sizes.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .projection import (ConstraintSystem, CSRMatrix, _count, _start_point,
                         _to_null_space, _vector)


class BadDimensionError(ValueError):
    """The requested dimension violates the problem's divisibility rule."""


DESK_DIM = 120

# the ufunc of each operator, by its name in the compiled source
_UFUNCS = {"+": "add", "-": "subtract", "*": "multiply"}


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
    point at a time. ``build``'s callbacks compute in float64, converting a
    point of another real dtype and refusing a complex one (TypeError).
    ``x0`` is checked as ``make_feasible`` checks it and kept as a
    read-only float copy.
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


def _monomials(spec):
    """The objective's monomials and, for each of the ``width`` block
    columns, those of its derivative.

    The derivatives follow one rule: d/dx_k of ``c * x_k ** e * r`` is
    ``(c * e) * x_k ** (e - 1) * r``.
    """
    terms = [_monomial(c, exponents) for c, exponents in spec.terms]
    derived = [[_monomial(c * e[k], e[:k] + (e[k] - 1,) + e[k + 1:])
                for c, e in spec.terms if e[k]] for k in range(spec.width)]
    return terms, derived


def _program(spec):
    """Source of ``block_values`` and ``gradient`` for a table entry, as
    straight-line code, and the scope that binds its names.

    Each function computes in float64: it takes a float64 point as it is
    and converts any other once, by ``_vector``'s rule, so a complex point
    raises TypeError. It reads the columns of a stack of points, flattened,
    as the views ``flat[k::w]`` (entry k of every block of every point,
    since w divides n) and subtracts their shifts. It forms each power by
    square-and-multiply, not by ``**``, whose exponents above 2 on a
    negative base take libm's slow ``pow``: ``v ** e`` is ``v ** (e - t) *
    v ** t`` for the top bit t of e, and ``v ** t * v ** t`` for e = 2t;
    so ``v ** 1`` and ``v ** 2`` are exact, and a higher power is a
    product of e copies of v, a few ulps from ``pow`` (Higham, Accuracy
    and Stability, 3.1). Products run left to right, coefficient first,
    and so do sums. Each distinct operation is one line, whose value every
    later use in that function shares, and each value is deleted after its
    last use, so no more arrays are alive at once than the operations
    need. A line whose operand is a temporary that dies on it writes into
    that operand's array, ``a op= b`` or, for ``+`` and ``*``, ``b op=
    a``, if that operand owns its array (no view of the point): the same
    IEEE operation, but for the payload of a NaN made from two NaNs. A gradient
    column whose total is made by its last line, and used nowhere else, is
    written by that line into the column, ``multiply(a, b,
    out=out[k::w])``, with no temporary for a strided store to copy. The
    source holds names and integers only: each float (coefficient, shift
    or derived constant) is a name in the scope.
    """
    w, shift = spec.width, dict(enumerate(spec.shift))
    terms, derived = _monomials(spec)
    # warnings name this module
    scope = {"__name__": __name__, "empty": np.empty, "float64": np.dtype(float),
             "to_float64": lambda x: _vector(x, x.shape, "point"),
             **{name: getattr(np, name) for name in _UFUNCS.values()}}
    floats = {}  # float.hex(value) -> name, so 0.0 and -0.0 stay apart

    def bind(value):
        key = float(value).hex()
        if key not in floats:
            floats[key] = f"c{len(floats)}"
            scope[floats[key]] = float(value)
        return floats[key]

    def function(name, sums, store, column=None):
        """The lines of function ``name``: the point's conversion, the sums,
        each ``store``d or written into ``column(k)`` by its last line."""
        # steps: (value, a, op, b) for ``value = a op b``, or ``value = a``
        # for a view of the point when op is None; (None, total, None, k)
        # stores column k
        names, steps = {}, []

        def line(a, op=None, b=None):
            """The name of ``a op b``, or of ``a``, given a line if new."""
            expr = a if op is None else f"{a} {op} {b}"
            if expr not in names:
                value = names[expr] = f"t{len(names)}"
                steps.append((value, a, op, b))
            return names[expr]

        def power(k, e):
            if e == 1:
                view = f"flat[{k}::{w}]"
                return line(view, "-", bind(shift[k])) if shift.get(k) else line(view)
            top = 1 << (e.bit_length() - 1)
            if e == top:
                half = power(k, top >> 1)
                return line(half, "*", half)
            return line(power(k, e - top), "*", power(k, top))

        for k, monomials in enumerate(sums):
            total = None
            for coef, factors in monomials:
                value = None if coef is None else bind(coef)
                for j, e in factors:
                    p = power(j, e)
                    value = p if value is None else line(value, "*", p)
                total = value if total is None else line(total, "+", value)
            total = bind(0.0) if total is None else total
            steps.append((None, total, None, k))
        last = {v: i for i, (value, a, op, b) in enumerate(steps)
                for v in ((a,) if op is None else (a, b))}
        owned = {value for value, _, op, _ in steps if op}  # no view of x
        buffer = {}  # value -> the name of the array that holds it
        fused = set()  # the values written into their column by their line
        lines = [f"def {name}(x):", "    if x.dtype != float64:",
                 "        x = to_float64(x)", "    flat = x.reshape(-1)"]
        if column:
            lines.append("    out = empty(x.size)")
        for i, (value, a, op, b) in enumerate(steps):
            held, target = (buffer.get(a, a), buffer.get(b, b)), value
            if value is None:
                if a in fused:
                    continue
                statement = store(b, held[0])
            elif op is None:
                statement = f"{value} = {a}"
            elif column and steps[i + 1][:2] == (None, value) and last[value] == i + 1:
                fused.add(value)
                statement = (f"{_UFUNCS[op]}({held[0]}, {held[1]}, "
                             f"out={column(steps[i + 1][3])})")
            else:
                # the first operand that dies here and may hold the result
                operands = (a, b)[:1 + (op in "+*")]
                into = next((j for j, mine in enumerate(operands)
                             if mine in owned and last[mine] == i), None)
                if into is None:
                    statement = f"{value} = {held[0]} {op} {held[1]}"
                else:
                    target = held[into]
                    statement = f"{target} {op}= {held[1 - into]}"
            if value is not None:
                buffer[value] = target
            lines.append(f"    {statement}")
            dead = [buffer[v] for v in names.values()
                    if last.get(v) == i and buffer[v] != target]
            if dead and i + 1 + (value in fused) < len(steps):
                lines.append(f"    del {', '.join(dead)}")
        return lines

    block_values = function(
        "block_values", [terms],
        lambda k, total: f"return {total}.reshape(x.shape[:-1] + (-1,))")
    gradient = function("gradient", derived,
                        lambda k, g: f"out[{k}::{w}] = {g}",
                        lambda k: f"out[{k}::{w}]")
    # solve passes single points; for them the reshape would add 2-3% to a
    # call at n = 120
    gradient.append("    return out if x.ndim == 1 else out.reshape(x.shape)")
    return "\n".join(block_values + gradient) + "\n", scope


def _evaluator(spec):
    """Objective, gradient and per-block values of a table entry, vectorized
    over the blocks; ``gradient`` and ``block_values`` also over a stack of
    points.

    ``block_values`` and ``gradient`` are compiled once from
    ``_program``'s source. ``block_values`` returns the objective term of
    every block, without ``const``; the objective is ``const`` plus its
    sum.
    """
    source, scope = _program(spec)
    exec(compile(source, "<eqflow.problems._program>", "exec"), scope)
    block_values, const = scope["block_values"], spec.const

    def objective(x):
        # the reduction ndarray.sum reaches through a Python frame
        f = float(np.add.reduce(block_values(x), axis=None))
        return f + const if const else f

    return objective, scope["gradient"], block_values


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
# by id, not spec: specs that differ only in a zero's sign compare equal
_compiled = functools.cache(lambda problem_id: _evaluator(_TABLE[problem_id]))


def _sized(problem_id: str, n):
    """problem_id's table entry and n, by the size check of ``build``."""
    spec = _TABLE.get(problem_id)
    if spec is None:
        raise BadDimensionError(f"unknown problem id {problem_id!r}")
    n = _count(n, "n")
    div = math.lcm(spec.width, len(spec.rows[0]))
    if n < div or n % div != 0:
        raise BadDimensionError(f"{problem_id} needs n to be a positive "
                                f"multiple of {div}, got {n}")
    return spec, n


def known_optima(problem_id: str, n: int) -> Optional[Tuple[Optional[np.ndarray], float]]:
    """Closed-form optimum (ex1, ex3) at any n, else reference value at the
    benchmark size, as the problem's table entry states them.

    Returns ``(x_star_pattern, f_star)`` where the pattern is the repeating
    block of the minimizer (``None`` when only the objective value is
    known), or ``None`` wherever ``build`` raises BadDimensionError and
    for a reference-only problem away from its benchmark size.
    """
    try:
        spec, n = _sized(problem_id, n)
    except BadDimensionError:
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
    spec, n = _sized(problem_id, n)
    objective, gradient, block_values = _compiled(problem_id)
    A, b = _block_constraints(n, spec.rows, spec.rhs)
    x0 = np.resize(np.asarray(spec.start, dtype=float), n)
    x0[:len(spec.head)] = spec.head
    return Problem(name=problem_id, objective=objective, gradient=gradient,
                   cs=ConstraintSystem(A=A, b=b), x0=x0,
                   block_values=block_values)


GRAD_TOL = 1e-5  # the largest relative error a gradient check passes

# float64 entries in one stack of check points (32 KiB), and in each half
# (up or down) of a batch of its moved copies: a batch holds at most 64 KiB.
# From n = _STACK up a stack holds one point and a batch one block column
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
    return lambda stack: np.array([_vector(gradient(x), stack.shape[1], "gradient")
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
    null space). The start is projected once, unchecked, since ``Problem``
    already checked ``x0`` as ``make_feasible`` does, and each stack of
    points is filled from it by one broadcast assignment. The
    per-coordinate step is ``h_i = 1e-6 * (1 + |x_i|)`` and the error
    metric is ``|fd - g| / (1 + |g|)``; the check passes when the worst
    error is at most ``GRAD_TOL``.

    The differences are grouped by block (Curtis, Powell & Reid, 1974):
    coordinate i of every block of width w moves at once, and each block's
    own value gives that block's difference. A block's difference is also
    more accurate than one of the whole sum, which carries the rounding
    error of all n/w blocks.

    The points are checked in stacks of ``max(1, _STACK // n)`` rows, and
    the block columns of a stack in batches of ``chunk = max(1, _STACK //
    (rows * n))``. For each of its columns a batch holds two copies of the
    stack, one with that coordinate of every block moved up and one moved
    down, and one ``block_values`` call values them all, a ``(2 * chunk *
    rows, n)`` array. Below n = 4096 each array of a stack (the points,
    their gradients and steps) holds at most 32 KiB and a batch at most 64
    KiB; from n = 4096 up a stack is one point and a batch one column, 2n
    floats. A stack costs ceil(w / chunk) calls, and the first stack one
    more to count the blocks, on a ``(1, n)`` view of its first point: at
    n = 120 the ten points make one stack and one batch, so a check makes
    2 calls. A result that is not one row of n/w values per row of the
    array raises ValueError. The gradients of a stack are one ``gradient``
    call on it too; a complex result raises TypeError, one not of shape
    ``(rows, n)`` DimensionMismatchError.
    Without ``block_values`` the objective is one block of width n, and a
    point costs 2n objective calls and one gradient call, each on one
    ``(n,)`` row. The perturbations of a stack are drawn by one
    ``rng.normal`` call, which gives the stream that one draw per point
    gives, and projected by one call. A ``num_points`` below 1 raises
    ValueError, one that is not an integer TypeError.
    """
    num_points = _count(num_points, "num_points")
    if num_points < 1:
        raise ValueError(f"num_points must be positive, got {num_points}")
    cs = problem.cs
    base = _to_null_space(cs, problem.x0, True)
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
        x = np.empty(stack)
        x[...] = base
        drawn = stack[0] - (start == 0)  # the points other than the start point
        if drawn:
            x[-drawn:] += _to_null_space(
                cs, rng.normal(scale=0.25, size=(drawn, n)), False)
        g = _vector(gradient(x), stack, "gradient")
        if w is None:
            w = n // _stack_values(problem.name, values, x[:1], None).shape[1]
        x, g = x.reshape(-1), g.reshape(-1)
        h = 1e-6 * (1.0 + np.abs(x))
        fd = np.empty_like(x)
        # as (rows*n/w, w), column i holds entry i of every block of every
        # point, since w divides n
        xw, hw, fdw = x.reshape(-1, w), h.reshape(-1, w), fd.reshape(-1, w)
        chunk = max(1, _STACK // x.size)
        for lo in range(0, w, chunk):
            # copy (i, 0) of the stack moves column lo + i up, (i, 1) down
            m = min(chunk, w - lo)
            moved = np.empty((m, 2) + xw.shape)
            moved[...] = xw
            for i in range(m):
                moved[i, 0, :, lo + i] += hw[:, lo + i]
                moved[i, 1, :, lo + i] -= hw[:, lo + i]
            v = _stack_values(problem.name, values, moved.reshape(-1, n), n // w)
            v = v.reshape(m, 2, -1)
            np.subtract(v[:, 0], v[:, 1], out=fdw[:, lo:lo + m].T)
        fd /= 2.0 * h
        # the guarded error |fd - g| / (1 + |g|), formed in fd: with fewer
        # n-long temporaries the heap is not trimmed and regrown per stack
        fd -= g
        np.abs(fd, out=fd)
        fd /= 1.0 + np.abs(g)
        np.maximum(worst, fd.reshape(stack).max(axis=0), out=worst)
    return GradientCheckReport(name=problem.name, n=n, num_points=num_points,
                               max_rel_error=float(worst.max()),
                               coord_errors=worst)
