"""Dense reference implementations shared by the tests."""

from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.sparse.csgraph import connected_components

from eqflow import make_feasible, project_gradient
from eqflow.direction import CurvaturePair, curvature_gate
from eqflow.problems import _monomials
from eqflow.projection import _coefficients


def dense_projection(A) -> np.ndarray:
    """The n-by-n projector I - A^T (A A^T)^{-1} A onto the null space of A."""
    A = np.asarray(A, float)
    return np.eye(A.shape[1]) - A.T @ np.linalg.inv(A @ A.T) @ A


def dense_feasible(A, b, x0) -> np.ndarray:
    """The point of Ax = b closest to x0, by one dense solve."""
    A = np.asarray(A, float)
    return x0 - A.T @ np.linalg.solve(A @ A.T, A @ x0 - b)


def dense_h(pair: Optional[CurvaturePair], n: int) -> np.ndarray:
    """Materialize the quasi-Newton H as an n-by-n matrix (test scale only)."""
    if not curvature_gate(pair):
        return np.eye(n)
    s, y, c = pair.s, pair.y, pair.s_dot_y
    return (np.eye(n)
            - (np.outer(y, s) + np.outer(s, y)) / c
            + (2.0 * pair.y_sq / c**2) * np.outer(s, s))


def group_columns(grp) -> np.ndarray:
    """The (k, c) variables of a block group, row i those of component i,
    as its column index ``at`` (a slice or an index array) picks them."""
    return np.r_[grp.at].reshape(grp.q.shape[:2])


def components(A):
    """(rows, columns) of each connected component of the bipartite
    row/column graph of the CSRMatrix A that holds a row, each increasing,
    as scipy labels the graph."""
    m, n = A.shape
    graph = sp.csr_matrix((np.ones(A.data.size), (A.rows, m + A.indices)),
                          shape=(m + n, m + n))
    _, label = connected_components(graph, directed=False)
    rows, cols = {}, {}
    for i, comp in enumerate(label[:m]):
        rows.setdefault(comp, []).append(i)
    for j, comp in enumerate(label[m:]):
        cols.setdefault(comp, []).append(j)
    return [(np.array(rows[comp]), np.array(cols[comp])) for comp in rows]


def component_factors(A, b, rows, cols):
    """q, r and b_r of one component of the CSRMatrix A, alone: its dense
    block ``A[rows][:, cols].T`` through ``np.linalg.qr``, then a 1-D
    ``np.linalg.solve`` of ``r^T b_r = b[rows]``."""
    block = np.zeros((len(rows), len(cols)))
    for l, i in enumerate(rows):
        lo, hi = A.indptr[i], A.indptr[i + 1]
        block[l, np.searchsorted(cols, A.indices[lo:hi])] = A.data[lo:hi]
    q, r = np.linalg.qr(block.T)
    return q, r, np.linalg.solve(r.T, b[rows])


def bincount_matvec(A, x) -> np.ndarray:
    """A @ x for the CSRMatrix A by one ``np.bincount`` over its stored
    entries: each row's products added in stored order to 0.0. Float
    zeros without a stored entry, where bincount's are int64."""
    return np.bincount(A.rows, weights=A.data * x[A.indices],
                       minlength=A.shape[0]).astype(float, copy=False)


def matmul_dot(a, b) -> float:
    """a.b of two float vectors by matmul, ``float(a @ b)``: BLAS ddot's
    result added to 0.0."""
    return float(a @ b)


def einsum_coefficients(q, at, v) -> np.ndarray:
    """q^T v of each block of a group, ``lead + (k, r)``, by the einsum the
    package used before it stated its order: on q's natural C-contiguous
    (k, c, r) layout, with a stack's entries taken row by row. einsum's
    order depends on both layouts, and numpy promises none of it."""
    entries = v[..., at] if isinstance(at, slice) else v.take(at, axis=-1)
    return np.einsum("kcr,...kc->...kr", np.ascontiguousarray(q),
                     entries.reshape(v.shape[:-1] + q.shape[:2]))


def stated_order_coefficients(q, at, v) -> np.ndarray:
    """q^T v of each block of a group, ``lead + (k, r)``, each entry summed
    over c as ``_coefficients`` states it: for r = 1 a lane of the even j
    and one of the odd j, for r = 2 one lane of all j, each lane left to
    right from 0.0, and the lanes added to 0.0. Written out with
    whole-block operations, whose every entry is one IEEE operation, so no
    numpy reduction chooses an order."""
    k, c, r = q.shape
    entries = v[..., np.r_[at]].reshape(v.shape[:-1] + (k, c))
    lanes = (range(0, c, 2), range(1, c, 2)) if r == 1 else (range(c),)
    coef = np.zeros(v.shape[:-1] + (k, r))
    for l in range(r):
        for lane in lanes:
            part = np.zeros(v.shape[:-1] + (k,))
            for j in lane:
                part = part + q[:, j, l] * entries[..., j]
            coef[..., l] = coef[..., l] + part
    return coef


def states_its_order(c, r) -> bool:
    """Whether ``_coefficients`` sums a (c, r) group in its stated order:
    r = 1 with c <= 7 and r = 2 with c <= 12; every other shape keeps the
    einsum."""
    return r == 1 and c <= 7 or r == 2 and c <= 12


def reference_coefficients(q, at, v) -> np.ndarray:
    """``stated_order_coefficients`` where ``_coefficients`` states its
    order, ``einsum_coefficients`` where it keeps the einsum."""
    k, c, r = q.shape
    if states_its_order(c, r):
        return stated_order_coefficients(q, at, v)
    return einsum_coefficients(q, at, v)


def einsum_expand(q, coef) -> np.ndarray:
    """Q coef of each block of a group, ``lead + (k, c)``, by the einsum
    that sums over r, adding the products to 0.0, on q's natural
    C-contiguous (k, c, r) layout."""
    return np.einsum("kcr,...kr->...kc", np.ascontiguousarray(q), coef)


def einsum_to_null_space(cs, v, shifted: bool) -> np.ndarray:
    """``_to_null_space`` with every group's expand by ``einsum_expand``."""
    out = v.copy()
    for grp in cs.projector.groups:
        coef = _coefficients(grp.q, grp.at, v)
        if shifted:
            coef = coef - grp.b_r
        out[..., grp.at] -= einsum_expand(grp.q, coef).reshape(v.shape[:-1] + (-1,))
    return out


def gathered_to_null_space(cs, v, shifted: bool) -> np.ndarray:
    """v - Q (Q^T v - t) over the groups of cs, with each group's entries
    gathered as ``v[cols]`` and written back by ``out[cols] -=``, the index
    form of what ``project_gradient`` (t = 0) and ``make_feasible``
    (t = b_r) compute. The coordinates are ``reference_coefficients``."""
    out = v.copy()
    for grp in cs.projector.groups:
        cols = group_columns(grp)
        coef = reference_coefficients(grp.q, cols.ravel(), v)
        out[cols] -= einsum_expand(grp.q, coef - grp.b_r if shifted else coef)
    return out


def gathered_multipliers(cs, g) -> np.ndarray:
    """``multipliers`` with each group's entries gathered as ``g[cols]``
    and the coordinates by ``reference_coefficients``."""
    lam = np.empty(cs.m)
    for grp in cs.projector.groups:
        coef = reference_coefficients(grp.q, group_columns(grp).ravel(), g)
        lam[grp.rows] = -np.linalg.solve(grp.r, coef[..., None])[..., 0]
    return lam


def direction_expression(pg, pair: CurvaturePair) -> np.ndarray:
    """-H @ pg for a gated pair as one expression of whole arrays."""
    c = pair.s_dot_y
    s_pg = float(pair.s @ pg)
    y_pg = float(pair.y @ pg)
    return (-pg
            + (pair.y * s_pg + pair.s * y_pg) / c
            - (2.0 * pair.y_sq * s_pg / c**2) * pair.s)


def ex8_block_minimum() -> float:
    """Global minimum of one ex8 block by a dense multi-start search.

    The block minimizes ``x^2 + x^2 z^2 + 2xy + y^4 + 8y`` on
    ``2x + 5y + z = 3``. With z eliminated it is a smooth function of
    (x, y), minimized by BFGS from every start of a 9-by-9 grid over
    [-4, 4]^2; the least value found is returned.
    """
    def f(v):
        x, y = v
        z = 3.0 - 2.0 * x - 5.0 * y
        return x * x + x * x * z * z + 2.0 * x * y + y ** 4 + 8.0 * y

    def grad(v):
        x, y = v
        z = 3.0 - 2.0 * x - 5.0 * y
        fx = 2.0 * x * (1.0 + z * z) + 2.0 * y
        fy = 2.0 * x + 4.0 * y ** 3 + 8.0
        fz = 2.0 * x * x * z  # z moves by -2 per unit x and -5 per unit y
        return np.array([fx - 2.0 * fz, fy - 5.0 * fz])

    starts = np.linspace(-4.0, 4.0, 9)
    return float(min(minimize(f, (x, y), jac=grad, method="BFGS",
                              options={"gtol": 1e-10}).fun
                     for x in starts for y in starts))


def grouped_check_errors(problem, num_points: int, seed: int) -> np.ndarray:
    """The grouped gradient check one point at a time: the worst guarded
    relative error per coordinate.

    Each point makes 2w calls of ``block_values``, each on a fresh copy of
    that point alone (2n objective calls without it), after one call that
    counts the blocks.
    """
    cs = problem.cs
    base = make_feasible(cs, problem.x0)
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
            x = base + project_gradient(cs, rng.normal(scale=0.25, size=n))
        g = np.asarray(problem.gradient(x), dtype=float)
        h = 1e-6 * (1.0 + np.abs(x))
        fd = np.empty(n)
        for i in range(w):
            up, down = x.copy(), x.copy()
            up[i::w] += h[i::w]
            down[i::w] -= h[i::w]
            fd[i::w] = values(up) - values(down)
        fd /= 2.0 * h
        err = np.abs(fd - g) / (1.0 + np.abs(g))
        worst = np.maximum(worst, err)
    return worst


def power(v, e):
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


def _monomial_sum(monomials, y):
    """Sum of the monomials over the block columns y, or None if empty.

    Products run left to right, coefficient first, each power formed by
    ``power``; the terms are summed left to right.
    """
    total = None
    for coef, factors in monomials:
        value = coef
        for k, e in factors:
            p = power(y[k], e)
            value = p if value is None else value * p
        total = value if total is None else total + value
    return total


def reference_evaluator(spec):
    """Objective, gradient and per-block values of a table entry,
    interpreted term by term: the bit-exact reference for the compiled
    ``eqflow.problems._evaluator``, which makes the same operations
    without repeating one."""
    w, const = spec.width, spec.const
    shifted = [(k, s) for k, s in enumerate(spec.shift) if s]
    terms, derived = _monomials(spec)

    def columns(x):
        # a stack of points, flattened, holds entry k of every block of
        # every point at [k::w], since w divides n
        flat = x.reshape(-1)
        y = [flat[k::w] for k in range(w)]
        for k, s in shifted:
            y[k] = y[k] - s
        return y

    def block_values(x):
        return _monomial_sum(terms, columns(x)).reshape(x.shape[:-1] + (-1,))

    def objective(x):
        f = float(block_values(x).sum())
        return f + const if const else f

    def gradient(x):
        y = columns(x)
        flat = np.empty(x.size)  # laid out as columns' flat x
        for k, monomials in enumerate(derived):
            g = _monomial_sum(monomials, y)
            flat[k::w] = 0.0 if g is None else g
        return flat if x.ndim == 1 else flat.reshape(x.shape)

    return objective, gradient, block_values
