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

A is held in this module's own compressed-row form, :class:`CSRMatrix`,
so the package imports no scipy.
"""

import operator
from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np


# A component is rank deficient when some |r_ii| <= _RANK_GATE * n * max |r_jj|
# over its own R, so independent blocks of very different scale pass.
_RANK_GATE = 1e-12


# 0.0 as a read-only array: a Python float operand costs a conversion at
# every call (0.5 against 0.34 us for an add at k = 40)
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class DimensionMismatchError(ValueError):
    """A vector or matrix argument has an incompatible shape."""


class RankDeficientError(ValueError):
    """The constraint matrix does not have full row rank."""


class NonFiniteError(ValueError):
    """A constraint or start-point entry is NaN or infinite."""


def _starts(keys, size):
    """Where each key 0..size-1 starts in keys sorted, and the length."""
    return np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=size))))


def _vector(v, shape, name="vector") -> np.ndarray:
    """v as a float array: for an int shape any array with that many
    entries, flattened; for a tuple exactly that shape (a stack of vectors,
    or a strict 1-D one). A complex v raises TypeError, any other shape
    DimensionMismatchError."""
    v = np.asarray(v)
    if type(shape) is not tuple:
        v, shape = v.ravel(), (shape,)
    if v.dtype != float:
        if v.dtype.kind == "c":
            raise TypeError(f"{name} is complex; only real values are accepted")
        v = v.astype(float)
    if v.shape != shape:
        raise DimensionMismatchError(f"{name} has shape {v.shape}, expected {shape}")
    return v


def _count(v, name) -> int:
    """v as an int by ``operator.index`` (numpy integers pass), else
    TypeError; a bool, which ``operator.index`` reads as 0 or 1, too."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {v!r}")


def _indices(v, name) -> np.ndarray:
    """v as intp; a non-empty v of no integer dtype raises TypeError."""
    v = np.asarray(v)
    if v.size and v.dtype.kind not in "iu":
        raise TypeError(f"CSR {name} must be integers, got dtype {v.dtype}")
    return np.array(v, dtype=np.intp)


def _sum_rows(terms):
    """terms[0] + terms[1] + ... left to right, a lone row as itself: the
    row sum of ``A @ x`` and of each lane of ``_coefficients``."""
    total = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    for l in range(2, len(terms)):  # iterating terms[2:] costs 0.7 us more
        total += terms[l]
    return total


def _dot(a, b) -> float:
    """a.b of two float vectors: the solve path's inner product.

    ``a.dot(b)`` calls the BLAS ddot that ``a @ b`` calls, without
    matmul's dispatch (about 0.5 against 0.8 us a call at n = 120).
    matmul adds ddot's result to 0.0, which turns a -0.0 into 0.0; the
    ``0.0 +`` does the same, so every result has the bits of
    ``float(a @ b)`` but for a NaN's payload. That holds for contiguous
    vectors and views of positive stride, the only ones the package
    passes; on a reversed view ``.dot`` sums in another order.
    """
    return 0.0 + float(a.dot(b))


def _infeasibility(cs: "ConstraintSystem", x) -> float:
    """max |Ax - b| over the rows of cs: the one feasibility measure.

    ``np.maximum.reduce`` is the reduction ``ndarray.max`` reaches through
    a Python frame; called directly it gives the same bits."""
    residual = cs.A @ x
    residual -= cs.b
    return float(np.maximum.reduce(np.abs(residual, out=residual)))


def _require_finite(values, name_of_entry):
    """Raise NonFiniteError naming the first non-finite entry of values, k,
    as ``name_of_entry(k)``."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = bad[0]
        raise NonFiniteError(f"{name_of_entry(k)} = {values[k]} is not finite "
                             f"({bad.size} in all)")


class CSRMatrix:
    """An (m, n) matrix in compressed sparse row form.

    Row i holds the entries ``data[indptr[i]:indptr[i + 1]]`` in columns
    ``indices[indptr[i]:indptr[i + 1]]``. The form is canonical: within a
    row the columns increase strictly, so duplicate entries given to the
    constructor are summed, in the order given. Explicitly stored zeros
    are kept. A non-empty ``indptr`` or ``indices`` of no integer dtype
    (bool, float) raises TypeError naming it, as complex entries do. The
    constructor copies its arrays into read-only ones, so no later change
    reaches the matrix. ``A @ x`` and ``A.T @ y`` take 1-D vectors;
    ``toarray()`` densifies.

    ``A @ x`` sums each row's products left to right (``_sum_rows``), in
    stored order, from slabs kept on the matrix: the rows of one length L
    as an (L, rows) array of column indices and one of values, so that a
    length makes one gather, one multiply and L - 1 adds. When every row
    has one length, as in every benchmark problem, the slabs are
    transposed views of ``indices`` and ``data``; otherwise each length
    keeps copies, and an empty row sums to 0.0. When, besides, the
    stored columns are one increasing run, as in every system with one
    row per block of variables, column l of the rows is the strided run
    l, l + L, l + 2L, ... from the run's start: the slab keeps the run as
    a slice and ``data`` as (rows, L), and the products are one multiply
    of a view of x, with no gather. The sum starts from its first
    product, not from 0.0, so a row whose products are all -0.0 sums to
    -0.0, where ``np.bincount`` gives 0.0; every other row sum has the
    bincount's bits, but for the sign and payload of a NaN, which numpy
    does not promise.
    """

    def __init__(self, indptr, indices, data, shape):
        if np.iscomplexobj(data):
            raise TypeError("matrix entries are complex; only real values are accepted")
        if len(shape) != 2:
            raise DimensionMismatchError(f"CSR shape {tuple(shape)} is not (m, n)")
        m, n = (_count(d, f"shape[{i}]") for i, d in enumerate(shape))
        indptr, indices = _indices(indptr, "indptr"), _indices(indices, "indices")
        data = np.array(data, dtype=float)
        if (min(m, n) < 0 or indptr.shape != (m + 1,) or indptr[0] != 0
                or np.any(np.diff(indptr) < 0)
                or not indptr[-1] == indices.size == data.size
                or np.any((indices < 0) | (indices >= n))):
            raise DimensionMismatchError(
                f"CSR arrays do not describe an ({m}, {n}) matrix")
        rows = np.repeat(np.arange(m), np.diff(indptr))
        key = rows * n + indices
        if np.any(key[1:] <= key[:-1]):
            key, slot = np.unique(key, return_inverse=True)
            data = np.bincount(slot, weights=data, minlength=key.size)
            rows, indices = np.divmod(key, n)
            indptr = _starts(rows, m)
        for a in (indptr, indices, data, rows):
            a.flags.writeable = False
        self.indptr, self.indices, self.data = indptr, indices, data
        self.rows = rows    # the row of each stored entry
        self.shape = (m, n)
        # (at, columns, values) per row length, at the rows of that length
        # or None for every row; columns is a slice for a run of columns.
        # The lengths come from bincount: np.unique imports numpy.ma on its
        # first call, 20 ms and 1 MB.
        lengths = np.diff(indptr)
        slabs = []
        for length in (np.flatnonzero(np.bincount(lengths)[1:]) + 1).tolist():
            at = np.flatnonzero(lengths == length)
            if at.size == m and (indices[1:] - indices[:-1] == 1).all():
                lo = int(indices[0])
                slab = None, slice(lo, lo + indices.size), data.reshape(m, length)
            elif at.size == m:
                slab = None, indices.reshape(m, length).T, data.reshape(m, length).T
            else:
                entries = indptr[at] + np.arange(length)[:, None]
                slab = at, indices[entries], data[entries]
                for a in slab:
                    a.flags.writeable = False
            slabs.append(slab)
        self._slabs = tuple(slabs)

    @classmethod
    def from_matrix(cls, A) -> "CSRMatrix":
        """A CSRMatrix of A: itself, a dense array (its nonzeros are stored)
        or anything with ``tocsr()``, such as every scipy.sparse format."""
        if isinstance(A, cls):
            return A
        if hasattr(A, "tocsr"):
            c = A.tocsr()
            return cls(c.indptr, c.indices, c.data, c.shape)
        a = np.asarray(A)
        if a.ndim != 2:
            raise DimensionMismatchError(
                f"constraint matrix must be 2-D, got shape {a.shape}")
        rows, cols = np.nonzero(a)
        return cls(_starts(rows, a.shape[0]), cols, a[rows, cols], a.shape)

    def __matmul__(self, x) -> np.ndarray:
        x = _vector(x, self.shape[1:])
        out = None
        for at, columns, values in self._slabs:
            if type(columns) is slice:  # (rows, L) products, row i's in row i
                terms = (x[columns].reshape(values.shape) * values).T
            else:
                terms = x[columns]
                terms *= values
            total = _sum_rows(terms)
            if at is None:  # every row has this length
                return total
            if out is None:
                out = np.zeros(self.shape[0])
            out[at] = total
        return np.zeros(self.shape[0]) if out is None else out

    @property
    def T(self) -> "_Transposed":
        return _Transposed(self)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.indices] = self.data
        return out


class _Transposed:
    """The transpose of a CSRMatrix, for ``A.T @ y``."""

    def __init__(self, a: CSRMatrix):
        self._a = a
        self.shape = a.shape[::-1]

    def __matmul__(self, y) -> np.ndarray:
        a = self._a
        y = _vector(y, a.shape[:1])
        # bincount of no entries gives int64 zeros
        return np.bincount(a.indices, weights=a.data * y[a.rows],
                           minlength=a.shape[1]).astype(float, copy=False)


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear equality constraints Ax = b with A of shape (m, n), m < n.

    ``A`` may be given as a dense array, as anything with ``tocsr()`` (every
    scipy.sparse format) or as a :class:`CSRMatrix`; it is converted once,
    and ``cs.A`` is then that :class:`CSRMatrix`, with duplicate entries
    summed and explicitly stored zeros kept. ``cs.b`` is a float copy of
    ``b``. Every array of a system is a read-only copy, so no later change
    reaches a system once it is checked, and the caller's arrays are never
    changed. A NaN or infinite entry of ``A`` (a stored one, if sparse) or
    of ``b`` raises :class:`NonFiniteError` naming it. ``cs.projector`` is
    then its :class:`Projector`, which the projection functions read: a
    rank-deficient ``A`` raises :class:`RankDeficientError` naming its rows,
    and ``dataclasses.replace(cs, b=...)`` makes a system factored anew.
    """

    A: CSRMatrix
    b: np.ndarray
    projector: "Projector" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = CSRMatrix.from_matrix(self.A)
        m, n = A.shape
        if m < 1 or n < 2 or m >= n:
            raise DimensionMismatchError(
                f"constraint matrix must satisfy 1 <= m < n, n >= 2, got m={m} n={n}"
            )
        b = _vector(self.b, m, "right-hand side").copy()
        b.flags.writeable = False
        _require_finite(A.data, lambda k: "constraint matrix entry "
                        f"A[{A.rows[k]}, {A.indices[k]}]")
        _require_finite(b, lambda i: f"right-hand side entry b[{i}]")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "projector", factor(self))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class BlockGroup:
    """QR factors of the k components of A that have r rows and c columns.

    Component i holds constraints ``rows[i]`` (r of them) over c variables,
    and ``at`` indexes the k * c variables of the group in a length-n
    vector, component by component, each component's in increasing order:
    ``v[at].reshape(k, c)[i]`` are component i's entries. ``at`` is
    ``slice(lo, lo + k * c)`` when those columns are one increasing run, as
    in every benchmark problem, and an index array otherwise. A slice makes
    ``v[at]`` and ``out[at] -=`` views of the vector instead of a gather and
    a scatter, and gives the same values. Component i's block of A^T
    factors as ``q[i] @ r[i]`` with ``q[i]`` (c, r) orthonormal and
    ``r[i]`` (r, r) upper triangular, and ``b_r[i]`` solves
    ``r[i]^T b_r[i] = b[rows[i]]``.

    ``q`` has shape (k, c, r). Where ``_coefficients`` states its order
    (r = 1 with c <= 7, r = 2 with c <= 12) it is stored as a view of a
    C-contiguous (r, k, c) array: ``q[..., l]``, column l of every
    component's Q, is one contiguous (k, c) block, laid out as the
    group's entries of a vector are. Other shapes keep the batched QR's
    C-contiguous (k, c, r) layout, on which their einsums sum. Either
    way its values, and its ``tobytes()``, are the QR's.
    """

    rows: np.ndarray
    at: Union[slice, np.ndarray]
    q: np.ndarray
    r: np.ndarray
    b_r: np.ndarray


@dataclass(frozen=True)
class Projector:
    """Immutable component-wise QR factors of A^T, held as ``cs.projector``.

    ``groups`` holds one :class:`BlockGroup` per component shape; every
    constraint row lies in exactly one group, and variables that appear in
    no constraint lie in none (the projections leave them unchanged).
    Every array of a group is read-only, so a system's projector is safe
    for concurrent read-only use.
    """

    groups: Tuple[BlockGroup, ...]


def _column_components(a: CSRMatrix) -> np.ndarray:
    """Label each column of a by the smallest column index of its component.

    Hook and shortcut over a forest of columns: every row takes the
    smallest root among its columns, the root of each of its columns is
    hooked onto that one, and every label is then followed to its root.
    Labels only decrease and stay inside a component, so at the fixed
    point they are constant on each component and equal its smallest
    column. Hooking roots, not the columns themselves, keeps the number of
    rounds small: 2 on the benchmark matrices, 12 on a randomly permuted
    chain of 1e5 variables.
    """
    label = np.arange(a.shape[1])
    while True:
        root = label[a.indices]
        new = label.copy()
        np.minimum.at(new, root, np.minimum.reduceat(root, a.indptr[:-1])[a.rows])
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def factor(cs: ConstraintSystem) -> Projector:
    """Factor cs.A^T = Q R by Householder reflections, one component at a time.

    :class:`ConstraintSystem` calls it once, when the system is made, and
    keeps the result as ``cs.projector``; the package does not export it.

    The connected components of the bipartite row/column graph of A are
    grouped by shape (r rows, c columns). One stable sort of the rows and
    one of the used columns by (group, component) make each group one run
    of each: groups in increasing (r, c), components by their smallest
    column, each component's rows and columns increasing. One scatter then
    puts each stored entry of A into one buffer of every group's stacked
    (k, c, r) blocks of A^T, and each stack goes through one batched QR.

    Raises
    ------
    RankDeficientError
        If A lacks (numerical) full row rank: a row has no nonzero entry,
        a component has more rows than columns, or a diagonal entry of a
        component's R satisfies ``|r_ii| <= 1e-12 * n * max |r_jj|``, the
        maximum taken over that component's R.
        The message names the rows of the offending component.
    """
    a, n = cs.A, cs.n
    empty = np.flatnonzero(np.diff(a.indptr) == 0)
    if empty.size:
        raise RankDeficientError(
            f"constraint matrix is rank deficient: row(s) {empty[:10].tolist()} "
            "have no nonzero entry"
        )
    label = _column_components(a)
    # A component is named by its label, its smallest column.
    row_label = label[a.indices[a.indptr[:-1]]]
    col_idx = np.flatnonzero(np.bincount(a.indices, minlength=n))
    col_label = label[col_idx]
    r_count = np.bincount(row_label, minlength=n)
    c_count = np.bincount(col_label, minlength=n)

    wide = np.flatnonzero(r_count > c_count)
    if wide.size:
        comp = wide[0]
        raise RankDeficientError(
            f"constraint matrix is rank deficient: rows "
            f"{np.flatnonzero(row_label == comp).tolist()} "
            f"involve only {c_count[comp]} variable(s)"
        )

    comps = np.flatnonzero(c_count)
    shapes, comp_group, sizes = np.unique(r_count[comps] * (n + 1) + c_count[comps],
                                          return_inverse=True, return_counts=True)
    group = np.zeros(n, dtype=np.intp)
    group[comps] = comp_group
    row_order = np.argsort(group[row_label] * n + row_label, kind="stable")
    col_order = col_idx[np.argsort(group[col_label] * n + col_label,
                                   kind="stable")]
    # Each group's rows and an index-array at are views of these.
    row_order.flags.writeable = col_order.flags.writeable = False
    # One buffer holds every group's (k, c, r) stack of A^T blocks. Row l of
    # component i of a group at start has offset start + i * c * r + l, its
    # column j has j * r, and each stored entry of A goes to their sum.
    r_of, c_of = np.divmod(shapes, n + 1)
    stack = np.zeros(int(sizes @ (r_of * c_of)))
    row_at, col_at = np.empty((2, n), dtype=np.intp)  # m < n
    parts = []
    row_end = col_end = start = 0
    for r, c, k in zip(r_of.tolist(), c_of.tolist(), sizes.tolist()):
        rows = row_order[row_end:row_end + k * r].reshape(k, r)
        at = col_order[col_end:col_end + k * c]
        row_end, col_end = row_end + k * r, col_end + k * c
        row_at[rows] = start + np.arange(0, k * c * r, c * r)[:, None] + np.arange(r)
        col_at[at.reshape(k, c)] = np.arange(0, c * r, r)
        if (at[1:] - at[:-1] == 1).all():
            at = slice(int(at[0]), int(at[-1]) + 1)
        parts.append((rows, at, stack[start:start + k * c * r].reshape(k, c, r)))
        start += k * c * r
    stack[row_at[a.rows] + col_at[a.indices]] = a.data
    # the grouping's arrays would otherwise stay alive beside the QR's and
    # set factor's peak
    del label, row_label, col_idx, col_label, r_count, c_count, comps, comp_group
    del group, row_at, col_at
    groups = []
    for rows, at, blocks in parts:
        q, rr = np.linalg.qr(blocks)
        diag = np.abs(np.diagonal(rr, axis1=1, axis2=2))
        bad = np.flatnonzero(diag.min(axis=1) <= _RANK_GATE * n * diag.max(axis=1))
        if bad.size:
            raise RankDeficientError(
                f"constraint matrix is rank deficient: rows "
                f"{rows[bad[0]].tolist()} have min |R diag| = "
                f"{diag[bad[0]].min():.3e}"
            )
        b_r = np.linalg.solve(rr.transpose(0, 2, 1), cs.b[rows][..., None])[..., 0]
        if _stated(*q.shape[1:]):
            q = np.ascontiguousarray(q.transpose(2, 0, 1)).transpose(1, 2, 0)
        for arr in (q, rr, b_r):
            arr.flags.writeable = False
        groups.append(BlockGroup(rows=rows, at=at, q=q, r=rr, b_r=b_r))
    return Projector(groups=tuple(groups))


def _stated(c, r) -> bool:
    """Whether ``_coefficients`` sums the blocks of a (c, r) group in its
    stated order; the other shapes keep the einsum."""
    return c <= (7 if r == 1 else 12) and r <= 2


def _coefficients(q, at, v) -> np.ndarray:
    """Row-space coordinates q^T v of each block of a group, shape
    ``lead + (k, r)``, from the group's entries ``v[..., at]`` of a vector
    or a stack of them, v of shape ``lead + (n,)``.

    Coordinate l of a block sums the c products p_j of ``q[..., j, l]``
    and the block's entry j in a stated order, then adds 0.0:
    - for r = 1 and c <= 7, two lanes, the even j and the odd j, then the
      two sums added (c = 3 gives ``(p0 + p2) + p1``);
    - for r = 2 and c <= 12, one lane of every j.
    Each lane is summed left to right by ``_sum_rows``.
    That is the order ``np.einsum("kcr,...kc->...kr", ...)`` sums in on
    the natural (k, c, r) layout of q (numpy 2.4.6, x86-64, measured for
    k from 1 to 3000, 1-D and stacked, r = 2 to c = 100), and the solve's
    bits hang on it: summed another way (``matmul``, ``.sum(axis=1)``,
    sequentially, reversed) block 0 of ex8 at n = 4800 ends in the local
    basin. The einsum adds the products to 0.0, so a block whose products
    are all -0.0 gets 0.0; the closing ``+ 0.0`` does the same. Written
    out, the order is the package's on every machine, and one contiguous
    multiply of q with the entries, a few adds of their columns, replaces
    einsum's slower loop over blocks; each row of a stack gets the bits it
    gets alone. Every other shape keeps the einsum, on q's natural layout:
    for r = 1 with c >= 8 it sums in yet another order, r >= 3 keeps that
    layout for the einsum of ``_expand``, whose order depends on it, and a
    block of many variables (a dense A is one) would make the written-out
    sum a long Python loop.
    """
    # take lays a stack's gathered entries out row by row, as a slice's
    # view has them
    entries = v[..., at] if isinstance(at, slice) else v.take(at, axis=-1)
    k, c, r = q.shape
    lead = v.shape[:-1]
    if not _stated(c, r):
        return np.einsum("kcr,...kc->...kr", q, entries.reshape(lead + (k, c)))
    # lead + (r, k, c) products, as rows of c: terms[j] holds the products
    # with entry j, for every block and coordinate
    terms = (q.transpose(2, 0, 1) * entries.reshape(lead + (1, k, c))).reshape(-1, c).T
    if r == 1 and c > 2:  # einsum's two lanes: the even j, then the odd j
        total = _sum_rows(terms[0::2])
        total += _sum_rows(terms[1::2])
    else:
        total = _sum_rows(terms)
    total += _ZERO  # for c = 1 in the products' own array
    return total.reshape(lead + (r, k)).swapaxes(-1, -2)


def _expand(q, coef) -> np.ndarray:
    """Q coef of each block of a group, shape ``lead + (k, c)``, from its
    coordinates coef, ``lead + (k, r)``.

    For r <= 2 an entry is one product, or the sum of two, and a sum of
    two terms has one value in any order; so broadcast products give
    einsum's value, in fewer passes. They differ from it only in the sign
    of a zero: einsum adds the products to 0.0, which turns a -0.0 sum
    into 0.0. A group with r >= 3 keeps the einsum.
    """
    r = q.shape[2]
    if r > 2:
        return np.einsum("kcr,...kr->...kc", q, coef)
    expanded = q[..., 0] * coef[..., None, 0]
    if r == 2:
        expanded += q[..., 1] * coef[..., None, 1]
    return expanded


def _to_null_space(cs: ConstraintSystem, v, shifted: bool) -> np.ndarray:
    """v - Q (Q^T v - t) over every group of cs, with t each group's b_r
    when shifted and 0 otherwise, for v of shape (..., n): each row of a
    stack gets the bits it gets alone. Q t maps block coordinates back to
    variables with the same per-entry order with or without a stack. An
    entry whose v is -0.0 and whose Q (Q^T v - t) is the -0.0 of
    ``_expand`` comes out 0.0; with einsum's 0.0 it stayed -0.0. Every
    other entry has the einsum expand's bits. A group whose slice holds
    all n variables forms the difference in the expand's array, with no
    copy of v."""
    lead = v.shape[:-1]
    out = None
    for grp in cs.projector.groups:
        q, at = grp.q, grp.at
        k, c, _ = q.shape
        coef = _coefficients(q, at, v)
        if shifted:
            coef = coef - grp.b_r
        expanded = _expand(q, coef).reshape(lead + (k * c,))
        if type(at) is slice and k * c == v.shape[-1]:  # the only group
            return np.subtract(v, expanded, out=expanded)
        if out is None:
            out = v.copy()
        out[..., at] -= expanded
    return out


def _start_point(x0, n) -> np.ndarray:
    """x0, n real and finite entries, as a float array of shape (n,)."""
    x0 = _vector(x0, n, "initial point")
    _require_finite(x0, lambda i: f"initial point entry x0[{i}]")
    return x0


def project_gradient(cs: ConstraintSystem, g) -> np.ndarray:
    """Project g onto the null space of cs.A (the component with A @ Pg = 0)."""
    return _to_null_space(cs, _vector(g, cs.n, "gradient"), False)


def make_feasible(cs: ConstraintSystem, x0) -> np.ndarray:
    """Return the point of cs (Ax = b) closest to x0 in the Euclidean norm.

    A NaN or infinite entry of x0 raises :class:`NonFiniteError` naming it.
    """
    return _to_null_space(cs, _start_point(x0, cs.n), True)


def multipliers(cs: ConstraintSystem, g) -> np.ndarray:
    """Lagrange multipliers lam = -(A A^T)^{-1} A g, one block at a time.

    Satisfies g + A^T lam = Pg, which makes the stationarity residual
    ``||g + A^T lam||`` identical to ``||Pg||``.
    """
    g = _vector(g, cs.n, "gradient")
    lam = np.empty(cs.m)
    for grp in cs.projector.groups:
        coef = _coefficients(grp.q, grp.at, g)
        lam[grp.rows] = -np.linalg.solve(grp.r, coef[..., None])[..., 0]
    return lam


def residuals(cs: ConstraintSystem, x, g, lam) -> Tuple[float, float]:
    """Return (kkt_inf, feas_inf): ||g + A^T lam||_inf and ||Ax - b||_inf.

    ``lam`` are the multipliers at g, as returned by :func:`multipliers`.
    """
    kkt = _vector(g, cs.n, "gradient") + cs.A.T @ lam
    return float(np.max(np.abs(kkt))), _infeasibility(cs, _vector(x, cs.n, "point"))
