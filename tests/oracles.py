"""Dense reference implementations shared by the tests."""

from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.sparse.csgraph import connected_components

from eqflow import make_feasible, project_gradient
from eqflow.direction import CurvaturePair, curvature_gate


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


def gathered_to_null_space(cs, v, shifted: bool) -> np.ndarray:
    """v - Q (Q^T v - t) over the groups of cs, with each group's entries
    gathered as ``v[cols]`` and written back by ``out[cols] -=``, the index
    form of what ``project_gradient`` (t = 0) and ``make_feasible``
    (t = b_r) compute."""
    out = v.copy()
    for grp in cs.projector.groups:
        cols = group_columns(grp)
        coef = np.einsum("kcr,kc->kr", grp.q, v[cols])
        out[cols] -= np.einsum("kcr,kr->kc", grp.q, coef - grp.b_r if shifted else coef)
    return out


def gathered_multipliers(cs, g) -> np.ndarray:
    """``multipliers`` with each group's entries gathered as ``g[cols]``."""
    lam = np.empty(cs.m)
    for grp in cs.projector.groups:
        coef = np.einsum("kcr,kc->kr", grp.q, g[group_columns(grp)])
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
