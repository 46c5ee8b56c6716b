"""QR-based projection machinery for the constraint set {x : Ax = b}.

Everything downstream of the constraints lives here: the Householder QR
factorization of A^T, projected gradients, least-distance feasibility
restoration, Lagrange multiplier recovery, and the KKT/feasibility
residuals used for termination reporting.

The factorization works component by component. Rows and columns of A
that share a nonzero belong to the same connected component of the
bipartite row/column graph, and A^T is block diagonal over these
components up to a permutation. Each block is factored on its own, so
the benchmark problems (thousands of 1x2, 1x3 or 2x3 blocks) cost O(n)
time and memory; a general dense A is the one-component case.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp


# A component is rank deficient when some |r_ii| <= _RANK_GATE * n * max |r_jj|
# over its own R, so independent blocks of very different scale pass.
_RANK_GATE = 1e-12


class DimensionMismatchError(ValueError):
    """A vector or matrix argument has an incompatible shape."""


class RankDeficientError(ValueError):
    """The constraint matrix does not have full row rank."""


class NonFiniteError(ValueError):
    """A constraint or start-point entry is NaN or infinite."""


def _first_non_finite(A):
    """(row, column, value) of a non-finite entry of A in the first row that
    has one, and how many there are; None if every entry is finite."""
    if sp.issparse(A):
        A = A.tocsr()
        bad = np.flatnonzero(~np.isfinite(A.data))
        if not bad.size:
            return None
        k = bad[0]
        row = np.searchsorted(A.indptr, k, side="right") - 1
        return int(row), int(A.indices[k]), A.data[k], bad.size
    bad = np.argwhere(~np.isfinite(A))
    if not bad.size:
        return None
    i, j = bad[0]
    return int(i), int(j), A[i, j], len(bad)


def _require_finite(v, what):
    """Raise NonFiniteError naming the first non-finite entry of vector v."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise NonFiniteError(f"{what}[{bad[0]}] = {v[bad[0]]} is not finite "
                             f"({bad.size} in all)")


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear equality constraints Ax = b with A of shape (m, n), m < n.

    ``A`` may be dense or scipy.sparse. A NaN or infinite entry of ``A``
    (a stored one, if sparse) or of ``b`` raises :class:`NonFiniteError`
    naming it. Full row rank is checked by :func:`factor`, not here.
    """

    A: object
    b: np.ndarray

    def __post_init__(self):
        m, n = self.A.shape
        b = np.asarray(self.b, dtype=float).ravel()
        if m < 1 or n < 2 or m >= n:
            raise DimensionMismatchError(
                f"constraint matrix must satisfy 1 <= m < n, n >= 2, got m={m} n={n}"
            )
        if b.shape[0] != m:
            raise DimensionMismatchError(
                f"right-hand side has length {b.shape[0]}, expected {m}"
            )
        bad = _first_non_finite(self.A)
        if bad is not None:
            i, j, value, count = bad
            raise NonFiniteError(
                f"constraint matrix entry A[{i}, {j}] = {value} is not finite "
                f"({count} in all)"
            )
        _require_finite(b, "right-hand side entry b")
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class BlockGroup:
    """QR factors of the k components of A that have r rows and c columns.

    Component i holds constraints ``rows[i]`` (r of them) over variables
    ``cols[i]`` (c of them). Its block of A^T factors as
    ``q[i] @ r[i]`` with ``q[i]`` (c, r) orthonormal and ``r[i]`` (r, r)
    upper triangular, and ``b_r[i]`` solves ``r[i]^T b_r[i] = b[rows[i]]``.
    """

    rows: np.ndarray
    cols: np.ndarray
    q: np.ndarray
    r: np.ndarray
    b_r: np.ndarray

    def coefficients(self, v) -> np.ndarray:
        """Row-space coordinates q^T v of each block, shape (k, r)."""
        return np.einsum("kcr,kc->kr", self.q, v[self.cols])

    def expand(self, t) -> np.ndarray:
        """Map block coordinates t (k, r) back to variables: q @ t, (k, c)."""
        return np.einsum("kcr,kr->kc", self.q, t)


@dataclass(frozen=True)
class Projector:
    """Immutable component-wise QR factors of A^T.

    ``groups`` holds one :class:`BlockGroup` per component shape; every
    constraint row lies in exactly one group, and variables that appear in
    no constraint lie in none (the projections leave them unchanged).
    Safe for concurrent read-only use.
    """

    n: int
    m: int
    groups: Tuple[BlockGroup, ...]

    def _check_vec(self, v, name="vector") -> np.ndarray:
        v = np.asarray(v, dtype=float).ravel()
        if v.shape[0] != self.n:
            raise DimensionMismatchError(
                f"{name} has length {v.shape[0]}, expected {self.n}"
            )
        return v


def _column_components(n, starts, cols, rows) -> np.ndarray:
    """Label each column by the smallest column index of its component.

    Hook and shortcut over a forest of columns: every row takes the
    smallest root among its columns, the root of each of its columns is
    hooked onto that one, and every label is then followed to its root.
    Labels only decrease and stay inside a component, so at the fixed
    point they are constant on each component and equal its smallest
    column. Hooking roots, not the columns themselves, keeps the number of
    rounds small: 2 on the benchmark matrices, 12 on a randomly permuted
    chain of 1e5 variables.
    """
    label = np.arange(n)
    while True:
        row_root = np.minimum.reduceat(label[cols], starts)
        new = label.copy()
        np.minimum.at(new, label[cols], row_root[rows])
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def _grouped(keys, size):
    """Stable order of 0..len(keys)-1 by key, and each key's start in it."""
    order = np.argsort(keys, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=size))))
    return order, starts


def factor(cs: ConstraintSystem) -> Projector:
    """Factor A^T = Q R by Householder reflections, one component at a time.

    The connected components of the bipartite row/column graph of A are
    grouped by shape (r rows, c columns), and each group's stacked (k, c, r)
    blocks of A^T go through one batched ``np.linalg.qr``.

    Parameters
    ----------
    cs : ConstraintSystem
        Constraints to factor; ``cs.A`` is read as CSR.

    Raises
    ------
    RankDeficientError
        If A lacks (numerical) full row rank: a row has no nonzero entry,
        a component has more rows than columns, or a diagonal entry of a
        component's R satisfies ``|r_ii| <= 1e-12 * n * max |r_jj|``, the
        maximum taken over that component's R.
        The message names the rows of the offending component.
    """
    a = sp.csr_array(cs.A)
    m, n = a.shape
    counts = np.diff(a.indptr)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise RankDeficientError(
            f"constraint matrix is rank deficient: row(s) {empty[:10].tolist()} "
            "have no nonzero entry"
        )
    nz_cols = a.indices.astype(np.intp)
    nz_rows = np.repeat(np.arange(m), counts)
    label = _column_components(n, a.indptr[:-1], nz_cols, nz_rows)

    comp_ids, row_comp = np.unique(label[nz_cols[a.indptr[:-1]]],
                                   return_inverse=True)
    num = comp_ids.size
    used = np.zeros(n, dtype=bool)
    used[nz_cols] = True
    col_idx = np.flatnonzero(used)
    col_comp = np.searchsorted(comp_ids, label[col_idx])
    row_order, row_start = _grouped(row_comp, num)
    col_order, col_start = _grouped(col_comp, num)
    r_count, c_count = np.diff(row_start), np.diff(col_start)

    wide = np.flatnonzero(r_count > c_count)
    if wide.size:
        comp = wide[0]
        rows = row_order[row_start[comp]:row_start[comp + 1]]
        raise RankDeficientError(
            f"constraint matrix is rank deficient: rows {rows.tolist()} "
            f"involve only {c_count[comp]} variable(s)"
        )

    shapes, comp_group = np.unique(r_count * (n + 1) + c_count,
                                   return_inverse=True)
    comp_order, group_start = _grouped(comp_group, shapes.size)
    blocks = []
    for g in range(shapes.size):
        comps = comp_order[group_start[g]:group_start[g + 1]]
        r, c = int(r_count[comps[0]]), int(c_count[comps[0]])
        rows = row_order[row_start[comps][:, None] + np.arange(r)]
        cols = col_idx[col_order[col_start[comps][:, None] + np.arange(c)]]
        ri, ci = np.broadcast_arrays(rows[:, None, :], cols[:, :, None])
        at = np.asarray(a[ri.ravel(), ci.ravel()], dtype=float).reshape(ri.shape)
        q, rr = np.linalg.qr(at)
        blocks.append((rows, cols, q, rr))

    rank_tol = _RANK_GATE * n
    for rows, _, _, rr in blocks:
        diag = np.abs(np.diagonal(rr, axis1=1, axis2=2))
        bad = np.flatnonzero(diag.min(axis=1) <= rank_tol * diag.max(axis=1))
        if bad.size:
            raise RankDeficientError(
                f"constraint matrix is rank deficient: rows "
                f"{rows[bad[0]].tolist()} have min |R diag| = "
                f"{diag[bad[0]].min():.3e}"
            )

    groups = tuple(
        BlockGroup(rows=rows, cols=cols, q=q, r=rr,
                   b_r=np.linalg.solve(rr.transpose(0, 2, 1),
                                       cs.b[rows][..., None])[..., 0])
        for rows, cols, q, rr in blocks)
    return Projector(n=n, m=m, groups=groups)


def project_gradient(p: Projector, g) -> np.ndarray:
    """Project g onto the null space of A (the component with A @ Pg = 0)."""
    g = p._check_vec(g, "gradient")
    out = g.copy()
    for grp in p.groups:
        out[grp.cols] -= grp.expand(grp.coefficients(g))
    return out


def make_feasible(p: Projector, x0) -> np.ndarray:
    """Return the feasible point closest to x0 in the Euclidean norm.

    A NaN or infinite entry of x0 raises :class:`NonFiniteError` naming it.
    """
    x0 = p._check_vec(x0, "initial point")
    _require_finite(x0, "initial point entry x0")
    out = x0.copy()
    for grp in p.groups:
        out[grp.cols] -= grp.expand(grp.coefficients(x0) - grp.b_r)
    return out


def multipliers(p: Projector, g) -> np.ndarray:
    """Lagrange multipliers lam = -(A A^T)^{-1} A g, one block at a time.

    Satisfies g + A^T lam = Pg, which makes the stationarity residual
    ``||g + A^T lam||`` identical to ``||Pg||``.
    """
    g = p._check_vec(g, "gradient")
    lam = np.empty(p.m)
    for grp in p.groups:
        lam[grp.rows] = -np.linalg.solve(grp.r, grp.coefficients(g)[..., None])[..., 0]
    return lam


def residuals(p: Projector, cs: ConstraintSystem, x, g,
              lam) -> Tuple[float, float]:
    """Return (kkt_inf, feas_inf): ||g + A^T lam||_inf and ||Ax - b||_inf.

    ``lam`` are the multipliers at g, as returned by :func:`multipliers`.
    """
    x = p._check_vec(x, "point")
    g = p._check_vec(g, "gradient")
    kkt = g + cs.A.T @ lam
    feas = cs.A @ x - cs.b
    return float(np.max(np.abs(kkt))), float(np.max(np.abs(feas)))
