"""Projection layer: factorization, projections, multipliers, residuals.

Dense oracles are built directly from A (explicit inverses / KKT solves),
independently of the component-wise QR path under test.
"""

import dataclasses
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse.csgraph import connected_components

import eqflow
from eqflow import (DESK_DIM, PAPER_DIMS, PROBLEM_IDS, ConstraintSystem,
                    CSRMatrix, DimensionMismatchError, NonFiniteError,
                    RankDeficientError, SolverConfig, build, gradient_check,
                    known_optima, make_feasible, multipliers, project_gradient,
                    residuals)
from eqflow.projection import (_RANK_GATE, Projector, _coefficients,
                               _column_components, _dot, _expand,
                               _infeasibility, _to_null_space, factor)
from oracles import (bincount_matvec, component_factors, components,
                     dense_feasible, dense_projection, einsum_coefficients,
                     einsum_expand, einsum_to_null_space, gathered_multipliers,
                     gathered_to_null_space, group_columns, matmul_dot,
                     stated_order_coefficients, states_its_order)


def random_system(rng, n_max=50):
    n = rng.integers(2, n_max + 1)
    m = rng.integers(1, n)
    A = rng.standard_normal((m, n))
    return ConstraintSystem(A=A, b=rng.standard_normal(m))


# ---------------------------------------------------------------- factor

def block_system(rng, blocks, free=0):
    """Block-structured A with randomly permuted rows and columns.

    ``blocks`` lists the (rows, cols) shape of each dense random block;
    ``free`` extra columns appear in no constraint. Returns the
    ConstraintSystem (A as CSR) and A as a dense array.
    """
    m = sum(r for r, _ in blocks)
    n = sum(c for _, c in blocks) + free
    A = np.zeros((m, n))
    i = j = 0
    for r, c in blocks:
        A[i:i + r, j:j + c] = rng.standard_normal((r, c))
        i, j = i + r, j + c
    A = A[rng.permutation(m)][:, rng.permutation(n)]
    return ConstraintSystem(A=sp.csr_matrix(A), b=rng.standard_normal(m)), A


def assert_matches_oracles(cs, A, rng, atol=1e-10):
    """Projection, feasibility and multipliers against the dense oracles."""
    m, n = A.shape
    g = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    assert_allclose(project_gradient(cs, g), dense_projection(A) @ g, atol=atol)
    assert_allclose(make_feasible(cs, x0), dense_feasible(A, cs.b, x0), atol=atol)
    kkt = np.block([[np.eye(n), A.T], [A, np.zeros((m, m))]])
    lam = np.linalg.solve(kkt, np.concatenate([-g, np.zeros(m)]))[n:]
    assert_allclose(multipliers(cs, g), lam, atol=atol)


def assert_block_layout(p, A):
    """The layout factor keeps: groups in increasing (r, c), the components
    of a group by their smallest column, each component's rows and columns
    increasing, and each row and each column with a nonzero in one block."""
    shapes = [(grp.rows.shape[1], grp.q.shape[1]) for grp in p.groups]
    assert shapes == sorted(set(shapes))
    for grp in p.groups:
        assert np.all(np.diff(grp.rows, axis=1) > 0)
        assert np.all(np.diff(group_columns(grp), axis=1) > 0)
        assert np.all(np.diff(group_columns(grp)[:, 0]) > 0)
    rows = np.concatenate([grp.rows.ravel() for grp in p.groups])
    cols = np.concatenate([group_columns(grp).ravel() for grp in p.groups])
    assert_array_equal(np.sort(rows), np.arange(A.shape[0]))
    assert_array_equal(np.sort(cols), np.flatnonzero(np.any(A, axis=0)))


def test_factor_1x2_hand():
    # x + y = 4: P = I - 11^T/2, least-distance point of 0 is (2, 2), and
    # lam = -(g_x + g_y)/2
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    assert_allclose(project_gradient(cs, [1.0, 0.0]), [0.5, -0.5], atol=1e-15)
    assert_allclose(make_feasible(cs, [0.0, 0.0]), [2.0, 2.0], atol=1e-14)
    assert_allclose(multipliers(cs, [2.0, 4.0]), [-3.0], atol=1e-14)


def test_factor_identity_column():
    # variables in no constraint pass through every projection unchanged
    cs = ConstraintSystem(A=np.array([[1.0, 0.0]]), b=np.array([3.0]))
    assert_allclose(project_gradient(cs, [5.0, 7.0]), [0.0, 7.0], atol=1e-15)
    assert_allclose(make_feasible(cs, [1.0, 7.0]), [3.0, 7.0], atol=1e-15)
    assert_allclose(multipliers(cs, [5.0, 7.0]), [-5.0], atol=1e-15)
    rng = np.random.default_rng(19)
    cs, A = block_system(rng, [(1, 2), (2, 3), (1, 3)], free=4)
    assert_matches_oracles(cs, A, rng)


def test_factor_matches_dense_projection():
    # mixed block shapes in one A, including a 3x5 block and a 4-row chain
    # x_i - x_{i+1} = b_i, whose components need several labelling rounds
    rng = np.random.default_rng(23)
    for _ in range(20):
        _, A = block_system(rng, [(1, 2), (1, 3), (2, 3), (1, 2), (3, 5),
                                   (2, 3), (1, 1)], free=1)
        chain = np.eye(4, 5) - np.eye(4, 5, k=1)
        A = np.block([[A, np.zeros((A.shape[0], 5))],
                      [np.zeros((4, A.shape[1])), chain]])
        A = A[rng.permutation(A.shape[0])][:, rng.permutation(A.shape[1])]
        cs = ConstraintSystem(A=sp.csr_matrix(A), b=rng.standard_normal(A.shape[0]))
        assert_block_layout(cs.projector, A)
        assert_matches_oracles(cs, A, rng)


def test_factor_reconstructs_at():
    # the block factors span exactly the rows of A: for g = A^T w the
    # projection vanishes and the multipliers return -w
    rng = np.random.default_rng(11)
    for _ in range(20):
        cs, A = block_system(rng, [(1, 2), (2, 3), (2, 2 + rng.integers(1, 4))])
        w = rng.standard_normal(cs.m)
        assert_allclose(project_gradient(cs, A.T @ w), 0.0, atol=1e-12)
        assert_allclose(multipliers(cs, A.T @ w), -w, atol=1e-12)


def test_factor_permuted_rows_and_columns():
    # permuting rows and columns of A permutes the results accordingly
    rng = np.random.default_rng(29)
    for _ in range(10):
        cs, A = block_system(rng, [(1, 2)] * 4 + [(2, 3)] * 3 + [(1, 3)] * 2)
        rp, cp = rng.permutation(cs.m), rng.permutation(cs.n)
        pp = ConstraintSystem(A=sp.csr_matrix(A[rp][:, cp]), b=cs.b[rp])
        g = rng.standard_normal(cs.n)
        x0 = rng.standard_normal(cs.n)
        assert_allclose(project_gradient(pp, g[cp]), project_gradient(cs, g)[cp],
                        atol=1e-12)
        assert_allclose(make_feasible(pp, x0[cp]), make_feasible(cs, x0)[cp],
                        atol=1e-12)
        assert_allclose(multipliers(pp, g[cp]), multipliers(cs, g)[rp], atol=1e-12)


def test_factor_general_dense_matches_oracle():
    # a dense A is one component, narrow (m << n) or wide (m close to n)
    rng = np.random.default_rng(7)
    for _ in range(40):
        cs = random_system(rng, n_max=30)
        assert_matches_oracles(cs, cs.A.toarray(), rng, atol=1e-9)


def test_factor_rank_deficient():
    # the rank is checked when a system is made, so no unfactorable
    # system exists
    with pytest.raises(RankDeficientError, match=r"rows \[0, 1\]"):
        ConstraintSystem(A=np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]),
                         b=np.zeros(2))
    rng = np.random.default_rng(31)
    _, A = block_system(rng, [(1, 2), (2, 3), (1, 3)], free=2)
    zero_row = np.vstack([A, np.zeros(A.shape[1])])
    with pytest.raises(RankDeficientError, match=r"row\(s\) \[4\]"):
        ConstraintSystem(A=sp.csr_matrix(zero_row), b=np.zeros(5))
    # a stored zero keeps the row in a block; the rank gate then rejects it
    csr = sp.csr_matrix(zero_row)
    stored = sp.csr_matrix((np.append(csr.data, 0.0), np.append(csr.indices, 0),
                            np.append(csr.indptr[:-1], csr.nnz + 1)),
                           shape=zero_row.shape)
    with pytest.raises(RankDeficientError):
        ConstraintSystem(A=stored, b=np.zeros(5))
    # two dependent rows inside one 2x3 block
    block = np.zeros((3, 6))
    block[0, :2] = (1.0, 1.0)
    block[1:, 2:5] = ((1.0, 2.0, 1.0), (2.0, 4.0, 2.0))
    with pytest.raises(RankDeficientError, match=r"rows \[1, 2\]"):
        ConstraintSystem(A=sp.csr_matrix(block), b=np.zeros(3))
    # a component with more rows than variables
    tall = np.zeros((3, 5))
    tall[:, :2] = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    with pytest.raises(RankDeficientError, match=r"rows \[0, 1, 2\]"):
        ConstraintSystem(A=tall, b=np.zeros(3))


def test_system_keeps_its_projector():
    cs = build("ex1", 12).cs
    assert isinstance(cs.projector, Projector)
    # factor computes an equal projector anew
    (kept,), (again,) = cs.projector.groups, factor(cs).groups
    assert again is not kept
    for name in ("q", "r", "b_r"):
        assert getattr(again, name).tobytes() == getattr(kept, name).tobytes()
    # a system made by replace is a new system, factored anew for its b
    doubled = dataclasses.replace(cs, b=2 * cs.b)
    assert doubled.projector is not cs.projector
    for system in (cs, doubled):
        x = make_feasible(system, np.zeros(cs.n))
        assert_allclose(system.A @ x, system.b, atol=1e-12)


def test_the_system_is_the_one_handle():
    # the projection functions take the system; its projector, and factor,
    # stay inside eqflow.projection
    assert not {"factor", "Projector"} & set(eqflow.__all__)
    assert [f.name for f in dataclasses.fields(Projector)] == ["groups"]


def test_rank_deficient_system_raises_at_every_call(monkeypatch):
    # nothing is kept for a system that fails: each construction factors
    # and raises
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
    calls = []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a: calls.append(1) or real_qr(*a))
    for expected_calls in (1, 2):
        with pytest.raises(RankDeficientError, match=r"rows \[0, 1\]"):
            ConstraintSystem(A=A, b=np.zeros(2))
        assert len(calls) == expected_calls


@pytest.mark.parametrize("index", [slice, np.ndarray])
def test_projector_arrays_are_read_only(index):
    # a system keeps its projector, so a write to one of its arrays
    # would reach every later solve on that system
    cs = build("ex8", DESK_DIM).cs
    if index is np.ndarray:
        perm = np.random.default_rng(4).permutation(cs.n)
        cs = ConstraintSystem(A=cs.A.toarray()[:, perm], b=cs.b)
    grp, = cs.projector.groups
    assert isinstance(grp.at, index)
    indexes = [grp.at] if index is np.ndarray else []
    for array in [grp.q, grp.r, grp.b_r, grp.rows] + indexes:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = np.nan
    g = np.random.default_rng(5).standard_normal(cs.n)
    assert np.all(np.isfinite(project_gradient(cs, g)))


def test_factor_rank_gate_per_component():
    # full-rank blocks 1e16 apart in scale: each is judged on its own R
    A = np.array([[1e8, 1e8, 0.0, 0.0], [0.0, 0.0, 1e-8, 1e-8]])
    cs = ConstraintSystem(A=sp.csr_matrix(A), b=np.array([4.0, 2e-8]))
    g = np.array([1.0, 3.0, -2.0, 6.0])
    assert_allclose(project_gradient(cs, g), dense_projection(A) @ g, atol=1e-14)
    assert_allclose(project_gradient(cs, g), [-1.0, 1.0, -4.0, 4.0], atol=1e-14)
    assert_allclose(make_feasible(cs, np.zeros(4)), [2e-8, 2e-8, 1.0, 1.0],
                    rtol=1e-14)
    assert_allclose(multipliers(cs, g), [-2e-8, -2e8], rtol=1e-14)
    # a dependent pair or a stored-zero row at the small scale still fails
    pair = np.zeros((3, 6))
    pair[0, :2] = 1e8
    pair[1:, 2:5] = 1e-8 * np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0]])
    with pytest.raises(RankDeficientError, match=r"rows \[1, 2\]"):
        ConstraintSystem(A=sp.csr_matrix(pair), b=np.zeros(3))
    stored = sp.csr_matrix((np.array([1e8, 1e8, 0.0]), np.array([0, 1, 2]),
                            np.array([0, 2, 3])), shape=(2, 4))
    with pytest.raises(RankDeficientError, match=r"rows \[1\]"):
        ConstraintSystem(A=stored, b=np.zeros(2))


def test_component_labels_match_csgraph():
    # each column's label is the smallest column of its connected component
    # in the bipartite row/column graph; scipy's csgraph is the reference
    rng = np.random.default_rng(37)
    chain = sp.eye(2999, 3000) - sp.eye(2999, 3000, k=1)
    cases = [sp.csr_array(chain)[rng.permutation(2999)][:, rng.permutation(3000)]]
    for _ in range(10):
        m = int(rng.integers(5, 400))
        n = m + int(rng.integers(1, 400))
        A = sp.random(m, n, density=rng.uniform(0.2, 3.0) / n, random_state=rng)
        A = A + sp.csr_array((np.ones(m), (np.arange(m), rng.integers(0, n, m))),
                             shape=(m, n))
        cases.append(sp.csr_array(A))
    for A in cases:
        m, n = A.shape
        label = _column_components(CSRMatrix.from_matrix(A))
        _, ref = connected_components(sp.bmat([[None, A], [A.T, None]]),
                                      directed=False)
        ref = ref[m:]
        smallest = {}
        for j in range(n):
            smallest.setdefault(ref[j], j)
        assert_array_equal(label, [smallest[c] for c in ref])


def array_bytes(obj):
    """Summed nbytes of every array reachable from obj's dataclass fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(v) for v in obj)
    return 0


def test_factor_memory_linear_in_n():
    # ex3 at ten times its benchmark size: 16 000 2x3 blocks
    n = 48000
    assert array_bytes(build("ex3", n).cs.projector) <= 100 * n


@pytest.mark.parametrize("pid", ["ex1", "ex3", "ex8"])
def test_factor_temporaries_linear_in_n(pid):
    # ROADMAP item 9: at n = 48 000 factor peaks 11.3-12.3 float64 per
    # variable beyond what it keeps on these three problems, the grouping's
    # arrays freed before the batched QR
    n = 48000
    cs = build(pid, n).cs
    tracemalloc.start()
    try:
        projector = factor(cs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert projector.groups
    assert (peak - kept) / (8 * n) <= 13


def test_constraint_system_shape_validation():
    with pytest.raises(DimensionMismatchError):
        ConstraintSystem(A=np.ones((2, 2)), b=np.zeros(2))  # m == n
    with pytest.raises(DimensionMismatchError,
                       match=r"right-hand side has shape \(2,\), expected \(1,\)"):
        ConstraintSystem(A=np.ones((1, 3)), b=np.zeros(2))


def test_constraint_system_non_finite_entries():
    A = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 3.0]])
    b = np.array([1.0, 2.0])
    bad = A.copy()
    bad[1, 2] = np.nan
    bad[1, 3] = np.inf
    with pytest.raises(NonFiniteError, match=r"A\[1, 2\] = nan .*\(2 in all\)"):
        ConstraintSystem(A=bad, b=b)
    # sparse: stored entries are checked, in row order whatever the format
    bad = A.copy()
    bad[1, 1] = -np.inf
    for fmt in (sp.csr_matrix, sp.csc_matrix, sp.coo_array):
        with pytest.raises(NonFiniteError, match=r"A\[1, 1\] = -inf"):
            ConstraintSystem(A=fmt(bad), b=b)
    with pytest.raises(NonFiniteError, match=r"b\[0\] = inf"):
        ConstraintSystem(A=sp.csr_matrix(A), b=np.array([np.inf, 2.0]))
    with pytest.raises(NonFiniteError, match=r"b\[1\] = nan"):
        ConstraintSystem(A=A, b=np.array([1.0, np.nan]))
    assert issubclass(NonFiniteError, ValueError)


# a float conversion would drop the imaginary part with only a warning, so
# a complex A, b or x0 raises TypeError naming it

def test_complex_matrix_raises():
    A = np.array([[1.0, 1.0 + 2.0j]])
    for form in (A, sp.csr_matrix(A)):
        with pytest.raises(TypeError, match="matrix entries are complex"):
            ConstraintSystem(A=form, b=np.array([4.0]))
    with pytest.raises(TypeError, match="matrix entries are complex"):
        CSRMatrix([0, 2], [0, 1], A[0], (1, 2))


def test_complex_right_hand_side_raises():
    with pytest.raises(TypeError, match="right-hand side is complex"):
        ConstraintSystem(A=np.array([[1.0, 1.0]]), b=[4.0 + 1.0j])


def test_complex_start_point_raises():
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    with pytest.raises(TypeError, match="initial point is complex"):
        make_feasible(cs, [1.0 + 2.0j, 0.0])


def test_constraint_system_copies_b():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0])
    cs = ConstraintSystem(A=A, b=b)
    A[0, 0] = b[0] = 100.0
    assert_array_equal(cs.b, [1.0, 2.0])
    assert_array_equal(cs.A.toarray(), [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])


@pytest.mark.parametrize("form", ["csr-arrays", "csr-duplicates", "dense", "scipy"])
def test_checked_system_arrays_are_read_only(form):
    # a write after the checks would reach a system that passed them (a NaN
    # written into A.data gave NaN Q factors and no error), so every array
    # of a system refuses writes; the caller's own arrays stay writable
    dense = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 2.0])
    given = {"csr-arrays": (np.array([0, 2, 4]), np.array([0, 1, 1, 2]), np.ones(4)),
             "csr-duplicates": (np.array([0, 3, 5]), np.array([0, 1, 0, 2, 1]),
                                np.array([0.5, 1.0, 0.5, 1.0, 1.0])),
             "dense": (dense,), "scipy": (sp.csr_matrix(dense),)}[form]
    A = (CSRMatrix(*given, (2, 3)) if form.startswith("csr")
         else CSRMatrix.from_matrix(given[0]))
    cs = ConstraintSystem(A=A, b=b)
    assert cs.A is A
    assert_array_equal(A.toarray(), dense)
    for array in (A.indptr, A.indices, A.data, A.rows, cs.b):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = np.nan
    for array in (b, *(a for a in given if isinstance(a, np.ndarray))):
        assert array.flags.writeable


# -------------------------------------------------------------- CSRMatrix

def _messy_inputs(rng):
    """A 6x9 matrix with an empty row (1), a stored zero at (3, 3) and the
    entries (0, 1) and (4, 2) stored twice, in every accepted input form,
    each with scipy's canonical CSR of it (stored zeros kept)."""
    rows = np.array([4, 0, 0, 2, 2, 2, 3, 4, 5, 0, 4])
    cols = np.array([2, 7, 1, 8, 0, 3, 3, 5, 6, 1, 2])
    data = rng.standard_normal(rows.size)
    data[6] = 0.0
    coo = sp.coo_matrix((data, (rows, cols)), shape=(6, 9))
    order = np.argsort(rows, kind="stable")  # rows grouped, columns unsorted
    raw_csr = sp.csr_matrix((data[order], cols[order],
                             np.searchsorted(rows[order], np.arange(7))),
                            shape=(6, 9))
    raw_csc = sp.csc_matrix((data, (rows, cols)), shape=(6, 9))
    canonical = sp.csr_matrix(coo)
    canonical.sum_duplicates()
    dense = canonical.toarray()
    return [(raw_csr, canonical), (raw_csc, canonical),
            (sp.coo_array(coo), canonical), (coo, canonical),
            (dense, sp.csr_matrix(dense))]


def _snapshot(A):
    if isinstance(A, np.ndarray):
        return [A.copy()]
    parts = ("data", "indices", "indptr") if hasattr(A, "indptr") else ("data", "row", "col")
    return [getattr(A, k).copy() for k in parts]


def test_csr_form_matches_scipy():
    rng = np.random.default_rng(41)
    x, y = rng.standard_normal(9), rng.standard_normal(6)
    for A, ref in _messy_inputs(rng):
        before = _snapshot(A)
        a = CSRMatrix.from_matrix(A)
        assert isinstance(a, CSRMatrix) and a.shape == (6, 9)
        for got, want in zip(_snapshot(A), before):  # the caller's matrix
            assert got.tobytes() == want.tobytes()
        assert_array_equal(a.indptr, ref.indptr)
        assert_array_equal(a.indices, ref.indices)
        assert a.data.tobytes() == ref.data.tobytes()
        assert (a @ x).tobytes() == (ref @ x).tobytes()
        assert (a.T @ y).tobytes() == (ref.T @ y).tobytes()
        assert a.toarray().tobytes() == ref.toarray().tobytes()
        assert np.asarray(a).shape == ()  # toarray() is the one way to densify
        assert CSRMatrix.from_matrix(a) is a
        with pytest.raises(DimensionMismatchError):
            a @ y
        with pytest.raises(DimensionMismatchError):
            a.T @ x
    # a system converts its A the same way; unsorted columns and a
    # duplicate entry, in a full-rank scipy matrix
    raw = sp.csr_matrix((np.array([2.0, 1.0, 0.5, 3.0, 0.5]), np.array([2, 0, 2, 1, 0]),
                         np.array([0, 3, 5])), shape=(2, 3))
    a = ConstraintSystem(A=raw, b=np.zeros(2)).A
    assert_array_equal(a.indptr, [0, 2, 4])
    assert_array_equal(a.indices, [0, 2, 0, 1])
    assert_array_equal(a.data, [1.0, 2.5, 0.5, 3.0])
    with pytest.raises(DimensionMismatchError):
        CSRMatrix([0, 1, 2], [0, 3], [1.0, 1.0], (2, 3))  # column 3 of 3
    with pytest.raises(DimensionMismatchError):
        CSRMatrix([0, 2, 1], [0, 1], [1.0, 1.0], (2, 3))  # falling indptr
    with pytest.raises(DimensionMismatchError):
        ConstraintSystem(A=np.ones(3), b=np.zeros(1))  # not 2-D
    for shape in ((3,), (1, 2, 3)):  # a shape is (m, n)
        with pytest.raises(DimensionMismatchError, match=r"is not \(m, n\)"):
            CSRMatrix([0], [], [], shape)


@pytest.mark.parametrize("indptr, indices, name, dtype", [
    ([0, 2], [0.9, 2.7], "indices", "float64"),     # was read as columns 0 and 2
    ([0, 2], [True, False], "indices", "bool"),     # was read as columns 1 and 0
    ([0.0, 2.0], [0, 2], "indptr", "float64"),
    ([False, True], [0], "indptr", "bool"),
])
def test_csr_refuses_index_arrays_that_are_not_integers(indptr, indices, name, dtype):
    with pytest.raises(TypeError, match=rf"^CSR {name} must be integers, got dtype {dtype}$"):
        CSRMatrix(indptr, indices, [1.0] * len(indices), (1, 3))


def test_csr_takes_integer_and_empty_index_arrays():
    for indices in ([], np.array([])):  # np.array([]) is float64
        A = CSRMatrix([0, 0], indices, [], (1, 3))
        assert A.indices.dtype == np.intp and A.indices.size == 0
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    ref = sp.csr_matrix(dense)
    assert ref.indices.dtype == np.int32
    assert_array_equal(CSRMatrix(ref.indptr, ref.indices, ref.data, ref.shape).toarray(),
                       dense)
    A = CSRMatrix(*(np.array(a, dtype=np.uint8) for a in ([0, 2, 3], [0, 2, 1])),
                  [1.0, 2.0, 3.0], (2, 3))
    assert_array_equal(A.toarray(), dense)
    A = build("ex3", 6).cs.A  # from the arrays of problems._block_constraints
    assert A.indices.dtype == A.indptr.dtype == np.intp


@pytest.mark.parametrize("args, m, n", [
    (([], [], [], (-1, 3)), -1, 3),      # indptr[0] does not exist
    (([0, 0], [], [], (1, -2)), 1, -2),  # arrays that fit but for the sign
])
def test_csr_refuses_negative_shapes(args, m, n):
    with pytest.raises(DimensionMismatchError,
                       match=rf"^CSR arrays do not describe an \({m}, {n}\) matrix$"):
        CSRMatrix(*args)


# every count or size a caller passes, each read with the count 4
@pytest.mark.parametrize("name, read", [
    ("shape[1]", lambda v: CSRMatrix([0, 0], [], [], (1, v)).shape[1]),
    ("max_iter", lambda v: SolverConfig(max_iter=v).max_iter),
    ("num_points", lambda v: gradient_check(build("ex1", 4), v).num_points),
    ("n", lambda v: build("ex1", v).n),
    ("n", lambda v: known_optima("ex1", v)[1]),
], ids=["CSRMatrix", "SolverConfig", "gradient_check", "build", "known_optima"])
def test_counts_are_read_one_way(name, read):
    # a flag is not a count, though operator.index reads True as 1
    for bad in (2.5, "2", True, False):
        with pytest.raises(TypeError, match=f"^{re.escape(name)} must be an integer, got"):
            read(bad)
    # a numpy integer passes and is kept as what the int gives
    kept, expected = read(np.int64(4)), read(4)
    assert kept == expected and type(kept) is type(expected)


def test_factor_same_blocks_from_every_input_form():
    rng = np.random.default_rng(43)
    cs, A = block_system(rng, [(1, 2), (2, 3), (1, 3), (2, 3)], free=2)
    rows, cols = np.nonzero(A)
    halves = sp.coo_array((np.tile(A[rows, cols] / 2, 2),
                           (np.tile(rows, 2), np.tile(cols, 2))), shape=A.shape)
    ref = ConstraintSystem(A=A, b=cs.b).projector
    for form in (sp.csr_matrix(A), sp.csc_array(A), halves, CSRMatrix.from_matrix(A)):
        p = ConstraintSystem(A=form, b=cs.b).projector
        assert len(p.groups) == len(ref.groups) == 3
        for grp, want in zip(p.groups, ref.groups):
            for f in dataclasses.fields(grp):
                got, exp = getattr(grp, f.name), getattr(want, f.name)
                if f.name == "at":  # a slice or an index array
                    assert type(got) is type(exp)
                    got, exp = np.arange(cs.n)[got], np.arange(cs.n)[exp]
                assert got.shape == exp.shape and got.tobytes() == exp.tobytes()


def test_factor_stores_q_in_the_layout_its_sums_read():
    # a 3 x 4 block (einsum), then a 2 x 3 block and a 1 x 8 block: each
    # group's layout follows its own shape, not the last group's
    rng = np.random.default_rng(40)
    A = np.zeros((6, 15))
    A[0:3, 0:4] = rng.standard_normal((3, 4))
    A[3:5, 4:7] = rng.standard_normal((2, 3))
    A[5, 7:15] = rng.standard_normal(8)
    groups = ConstraintSystem(A=A, b=rng.standard_normal(6)).projector.groups
    assert sorted(g.q.shape for g in groups) == [(1, 3, 2), (1, 4, 3), (1, 8, 1)]
    layouts = {g.q.shape[1:]: (g.q.flags.c_contiguous,
                               g.q.transpose(2, 0, 1).flags.c_contiguous)
               for g in groups}
    # (natural, (r, k, c)); for r = 1 the two are one layout
    assert layouts == {(4, 3): (True, False), (3, 2): (False, True),
                       (8, 1): (True, True)}


def tiled_case(length, m, off=False, zeros=False):
    """A matrix with one row per block of ``length`` consecutive columns,
    the blocks one run from column ``length - 1``, and a free last column:
    the strided path. With ``off`` the last stored column moves by one
    onto the free column, which breaks the run (the gather path); with
    ``zeros`` row 0's products are all -0.0. Returns (A, x, b)."""
    lo = length - 1
    n = lo + m * length + 1
    cols = lo + np.arange(m * length)
    if off:
        cols[-1] += 1
    rng = np.random.default_rng(10 * length + m)
    data, x = rng.standard_normal(m * length), rng.standard_normal(n)
    if zeros:
        data[:length] = np.abs(data[:length])
        x[cols[:length]] = -0.0
    A = CSRMatrix(np.arange(0, m * length + 1, length), cols, data, (m, n))
    return A, x, rng.standard_normal(m)


TILED_CASES = ([(length, m, False, False) for length in (1, 2, 3, 4) for m in (1, 5)]
               + [(2, 3, True, False), (1, 4, True, False), (3, 2, False, True),
                  (1, 1, False, True), (2, 4, True, True)])


@st.composite
def csr_cases(draw):
    """A CSRMatrix whose rows have mixed lengths, empty ones among them (m
    may be 0), built from duplicate entries and stored zeros; a point
    with infinite and NaN entries among ordinary ones; and a b. The
    ordinary values are seeded normal draws, whose sums round."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
    nnz = sum(lengths)
    cols = draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(size, special):
        v = rng.standard_normal(size)
        picks = rng.random(size) < draw(st.sampled_from([0.0, 0.2, 0.6]))
        v[picks] = rng.choice(special, picks.sum())
        return v

    data = values(nnz, [0.0, -0.0, 1e-300, -1e300])
    x = values(n, [0.0, -0.0, 1e-300, -1e300, math.inf, -math.inf, math.nan])
    A = CSRMatrix(np.concatenate(([0], np.cumsum(lengths, dtype=int))), cols,
                  data, (m, n))
    return A, x, rng.standard_normal(m)


def _with_tiled_cases(test):
    for case in TILED_CASES:
        test = example(tiled_case(*case))(test)
    return test


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(csr_cases())
@_with_tiled_cases
def test_matvec_has_the_bincount_bytes(case):
    A, x, b = case
    m, n = A.shape
    with np.errstate(all="ignore"):
        got, want = A @ x, bincount_matvec(A, x)
        assert got.dtype == want.dtype and got.shape == want.shape == (m,)
        # A.T @ y is float zeros, not bincount's int64, without stored entries
        t = A.T @ b
        assert t.dtype == float and t.shape == (n,)
        # a row whose products are all -0.0 sums to -0.0 where bincount,
        # adding them to 0.0, gives 0.0; numpy promises no NaN's payload
        differ = got.view(np.int64) != want.view(np.int64)
        zero_sign = (got == 0) & np.signbit(got) & (want == 0) & ~np.signbit(want)
        assert np.all(~differ | zero_sign | (np.isnan(got) & np.isnan(want)))
        if m:  # the feasibility measure has every bit of bincount's
            got = _infeasibility(types.SimpleNamespace(A=A, b=b), x)
            want = float(np.abs(bincount_matvec(A, x) - b).max())
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    for wrong in (np.zeros(n + 1), np.zeros((1, n)), np.zeros((n, 1))):
        with pytest.raises(DimensionMismatchError):
            A @ wrong


@pytest.mark.parametrize("length, m, off, zeros", TILED_CASES)
def test_tiled_matvec_reads_strided_views_of_x(length, m, off, zeros):
    # one row per block over one run of columns multiplies views of x, a
    # near-run gathers (test_matvec_has_the_bincount_bytes checks both
    # sums); either way products that are all -0.0 sum to -0.0
    A, x, _ = tiled_case(length, m, off, zeros)
    (at, columns, values), = A._slabs
    assert at is None and type(columns) is (np.ndarray if off else slice)
    got = A @ x
    assert (got[0] == 0 and np.signbit(got[0])) == zeros


def test_matvec_slabs_are_views_when_rows_have_one_length():
    A = build("ex3", DESK_DIM).cs.A
    (at, columns, values), = A._slabs
    assert at is None and columns.shape == values.shape == (3, A.shape[0])
    assert np.shares_memory(columns, A.indices) and np.shares_memory(values, A.data)
    rng = np.random.default_rng(5)
    lengths = rng.integers(0, 4, 40)
    A = CSRMatrix(np.concatenate(([0], np.cumsum(lengths))),
                  rng.integers(0, 9, lengths.sum()),
                  rng.standard_normal(lengths.sum()), (40, 9))
    assert sorted(columns.shape[0] for _, columns, _ in A._slabs) == [1, 2, 3]
    assert all(not a.flags.writeable for slab in A._slabs for a in slab)
    x = rng.standard_normal(9)
    assert (A @ x).tobytes() == bincount_matvec(A, x).tobytes()


# ------------------------------------------------------------------ _dot

@st.composite
def dot_cases(draw):
    """Two float vectors of one length, 0 to 6000, each contiguous, every
    second entry of a buffer, or a buffer from its second entry on; seeded
    normal entries with signed zeros, subnormals, huge values, infinities
    and NaNs among them."""
    size = draw(st.one_of(st.integers(0, 8), st.integers(0, 6000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.0, 0.02, 0.5, 1.0]))
    special = [0.0, -0.0, 1e-310, -1e-310, 1e300, -1e300, math.inf, -math.inf,
               math.nan]

    def vector():
        buffer = rng.standard_normal(2 * size + 1)
        picks = rng.random(buffer.size) < share
        buffer[picks] = rng.choice(special, picks.sum())
        view = draw(st.sampled_from([slice(size), slice(0, 2 * size, 2),
                                     slice(1, size + 1)]))
        return buffer[view]
    return vector(), vector()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(dot_cases())
@example((np.array([-0.0]), np.array([0.0])))  # ddot alone gives -0.0
def test_dot_has_the_matmul_bytes(case):
    # _dot skips matmul's dispatch and keeps its bytes, the 0.0 it adds
    # ddot's sum to included; numpy promises no NaN's payload
    a, b = case
    with np.errstate(all="ignore"):
        got, want = _dot(a, b), matmul_dot(a, b)
    assert type(got) is float
    assert (np.float64(got).tobytes() == np.float64(want).tobytes()
            or math.isnan(got) and math.isnan(want))


# ------------------------------- column views against the gather oracles

def assert_gather_oracle_bytes(cs, rng):
    """project_gradient, make_feasible and multipliers give the bytes of
    the forms that gather ``v[cols]`` and scatter ``out[cols] -=``, at a
    random vector and at a random point, and a stack of 0, 1 or 3 vectors
    gives each row the bytes that row gets alone, shifted and unshifted;
    returns the projector."""
    g, x0 = rng.standard_normal(cs.n), rng.standard_normal(cs.n)
    assert project_gradient(cs, g).tobytes() == gathered_to_null_space(cs, g, False).tobytes()
    assert make_feasible(cs, x0).tobytes() == gathered_to_null_space(cs, x0, True).tobytes()
    assert multipliers(cs, g).tobytes() == gathered_multipliers(cs, g).tobytes()
    for rows in (0, 1, 3):
        stack = rng.standard_normal((rows, cs.n))
        for shifted in (False, True):
            alone = np.array([_to_null_space(cs, v, shifted) for v in stack])
            stacked = _to_null_space(cs, stack, shifted)
            assert stacked.shape == (rows, cs.n)
            assert stacked.tobytes() == alone.tobytes()
    return cs.projector


def assert_factor_bytes(cs, sample=None):
    """Each component's rows, the columns ``at`` gives it, and its q, r and
    b_r in cs.projector have the bytes of ``component_factors``, the
    component factored alone; for all components, or for ``sample`` of
    them drawn at seeded random."""
    where = {int(row): (grp, i) for grp in cs.projector.groups
             for i, row in enumerate(grp.rows[:, 0])}
    comps = components(cs.A)
    assert len(where) == len(comps)
    if sample is not None:
        picks = np.random.default_rng(0).choice(len(comps), sample, replace=False)
        comps = [comps[i] for i in picks]
    for rows, cols in comps:
        grp, i = where[rows[0]]
        expected = (rows, cols) + component_factors(cs.A, cs.b, rows, cols)
        got = (grp.rows[i], group_columns(grp)[i], grp.q[i], grp.r[i], grp.b_r[i])
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and g.shape == e.shape
            assert g.tobytes() == e.tobytes()


def assert_index(grp, A, kind):
    """grp.at is of the given kind, and the columns it gives component i
    are the sorted union of the columns that the rows ``grp.rows[i]`` of
    the CSRMatrix A store entries in."""
    assert isinstance(grp.at, kind)
    m, n = A.shape
    k = len(grp.rows)
    component = np.full(m, -1)
    component[grp.rows] = np.arange(k)[:, None]
    slot = component[A.rows]
    ours = slot >= 0
    # (component, column) of each stored entry of the group's rows
    pairs = np.unique(slot[ours] * n + A.indices[ours])
    assert_array_equal(pairs, (np.arange(k)[:, None] * n + group_columns(grp)).ravel())


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_benchmark_groups_read_slices(pid):
    rng = np.random.default_rng(17)
    for n, sample in ((DESK_DIM, None), (PAPER_DIMS[pid], 40)):
        cs = build(pid, n).cs
        assert_factor_bytes(cs, sample)
        p = assert_gather_oracle_bytes(cs, rng)
        for grp in p.groups:
            assert_index(grp, cs.A, slice)


@pytest.mark.parametrize("pid", ["ex1", "ex3", "ex8"])
@pytest.mark.parametrize("free", [1, 3, 7])
def test_slices_behind_free_leading_columns(pid, free):
    # free leading columns shift every slice off the vector's alignment
    cs = build(pid, DESK_DIM).cs
    A = cs.A
    shifted = CSRMatrix(A.indptr, A.indices + free, A.data,
                        (A.shape[0], A.shape[1] + free))
    cs = ConstraintSystem(A=shifted, b=cs.b)
    assert_factor_bytes(cs)
    p = assert_gather_oracle_bytes(cs, np.random.default_rng(free))
    for grp in p.groups:
        assert_index(grp, shifted, slice)
        assert grp.at.start == free


def test_permuted_columns_take_the_index_path():
    cs = build("ex8", DESK_DIM).cs
    rng = np.random.default_rng(8)
    permuted = ConstraintSystem(A=cs.A.toarray()[:, rng.permutation(cs.n)], b=cs.b)
    assert_factor_bytes(permuted)
    p = assert_gather_oracle_bytes(permuted, rng)
    for grp in p.groups:
        assert_index(grp, permuted.A, np.ndarray)


def test_interleaved_groups_take_the_index_path():
    # block j: a 1x2 component on columns 5j, 5j+2 and a 1x3 one on
    # 5j+1, 5j+3, 5j+4, so neither group's columns form one run
    rng = np.random.default_rng(12)
    blocks = 6
    A = np.zeros((2 * blocks, 5 * blocks))
    for j in range(blocks):
        A[2 * j, [5 * j, 5 * j + 2]] = rng.standard_normal(2)
        A[2 * j + 1, [5 * j + 1, 5 * j + 3, 5 * j + 4]] = rng.standard_normal(3)
    cs = ConstraintSystem(A=A, b=rng.standard_normal(2 * blocks))
    assert_factor_bytes(cs)
    p = assert_gather_oracle_bytes(cs, rng)
    assert [group_columns(grp).shape for grp in p.groups] == [(blocks, 2), (blocks, 3)]
    for grp in p.groups:
        assert_index(grp, cs.A, np.ndarray)


def test_mixed_shapes_factor_component_by_component_bytes():
    # many components of five shapes, rows and columns permuted, some
    # columns free: the batched factors are each component's alone
    rng = np.random.default_rng(31)
    shapes = [(1, 2), (2, 3), (1, 3), (3, 5), (2, 2)]
    cs, _ = block_system(rng, [shapes[i] for i in rng.integers(0, 5, 60)], free=9)
    assert_factor_bytes(cs)


def _expand_systems():
    """Systems whose groups have r = 1 and r = 2 (and one r = 3), read by a
    slice or by an index array."""
    rng = np.random.default_rng(29)
    ex3, ex8 = build("ex3", DESK_DIM).cs, build("ex8", DESK_DIM).cs
    permuted = [ConstraintSystem(A=cs.A.toarray()[:, rng.permutation(cs.n)], b=cs.b)
                for cs in (ex3, ex8)]
    interleaved = np.zeros((12, 30))
    for j in range(6):
        interleaved[2 * j, [5 * j, 5 * j + 2]] = rng.standard_normal(2)
        interleaved[2 * j + 1, [5 * j + 1, 5 * j + 3, 5 * j + 4]] = rng.standard_normal(3)
    mixed, _ = block_system(rng, [(1, 2), (2, 3), (3, 5)] * 4, free=2)
    return [ex3, ex8, *permuted,
            ConstraintSystem(A=interleaved, b=rng.standard_normal(12)), mixed]


@st.composite
def coefficient_cases(draw):
    """q of a group of k blocks (k * c columns among n) with r rows each,
    stored as factor stores it, the group's ``at`` (a
    slice or an index array) and a vector or a (rows, n) stack, entries
    drawn among normals and +-0.0, +-1e-310, +-1e300, +-inf and NaN.
    Block 0 has q = 1 and entries -0.0, so its products are all -0.0."""
    r = draw(st.sampled_from([1, 2, 3]))
    c = draw(st.integers(max(r, 1), 12))
    k = draw(st.integers(1, 50))
    rows = draw(st.sampled_from([None, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    special = [0.0, -0.0, 1e-310, -1e-310, 1e300, -1e300, math.inf, -math.inf, math.nan]
    share = draw(st.sampled_from([0.0, 0.1, 0.5]))

    def values(shape):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        picks = rng.random(shape) < share
        v[picks] = rng.choice(special, picks.sum())
        return v

    q = values((k, c, r))
    q[0] = 1.0
    if states_its_order(c, r):  # a view of an (r, k, c) array
        q = np.ascontiguousarray(q.transpose(2, 0, 1)).transpose(1, 2, 0)
    n = k * c + draw(st.integers(0, 4))
    if draw(st.booleans()):
        lo = draw(st.integers(0, n - k * c))
        at, cols = slice(lo, lo + k * c), np.arange(lo, lo + k * c)
    else:
        cols = rng.permutation(n)[:k * c]
        at = cols
    v = values((n,) if rows is None else (rows, n))
    v[..., cols[:c]] = -0.0
    return q, at, v


def _same_bytes(got, want):
    """Equal in every byte, but for the payload of a NaN."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.all((got.view(np.int64) == want.view(np.int64))
                       | (np.isnan(got) & np.isnan(want))))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(coefficient_cases())
def test_coefficients_sum_in_the_stated_order(case):
    # the kernel's bytes are those of the order written out entry by
    # entry; where it keeps the einsum (r = 1 with c >= 8, r = 3), the
    # einsum's
    q, at, v = case
    k, c, r = q.shape
    with np.errstate(all="ignore"):
        got = _coefficients(q, at, v)
        oracle = (stated_order_coefficients if states_its_order(c, r)
                  else einsum_coefficients)
        want = oracle(q, at, v)
    assert got.shape == v.shape[:-1] + (k, r)
    assert _same_bytes(got, want)
    # block 0's products are all -0.0, and its coordinates 0.0
    assert not np.signbit(got[..., 0, :]).any() and (got[..., 0, :] == 0).all()


def test_expand_has_the_einsum_bytes():
    rng = np.random.default_rng(30)
    kinds = set()
    for cs in _expand_systems():
        for v in (rng.standard_normal(cs.n), rng.standard_normal((3, cs.n))):
            for grp in cs.projector.groups:
                coef = _coefficients(grp.q, grp.at, v)
                got, want = _expand(grp.q, coef), einsum_expand(grp.q, coef)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                kinds.add((grp.r.shape[1], type(grp.at), v.ndim))
            for shifted in (False, True):
                got = _to_null_space(cs, v, shifted)
                assert got.tobytes() == einsum_to_null_space(cs, v, shifted).tobytes()
    assert {(r, kind, ndim) for r in (1, 2) for kind in (slice, np.ndarray)
            for ndim in (1, 2)} <= kinds


def test_expand_differs_from_einsum_only_in_the_sign_of_a_zero():
    # einsum adds the products to 0.0; a product keeps its -0.0, and an
    # entry of v that is -0.0 then comes out 0.0
    for pid in ("ex8", "ex3"):  # r = 1 and r = 2, one group each
        cs = build(pid, DESK_DIM).cs
        (grp,) = cs.projector.groups
        coef = np.zeros(grp.b_r.shape)
        got, want = _expand(grp.q, coef), einsum_expand(grp.q, coef)
        assert np.array_equal(got, want) and not np.signbit(want).any()
        minus = np.signbit(grp.q).all(axis=2)  # every product -0.0
        assert minus.any()
        assert_array_equal(np.signbit(got), minus)
        v = np.full(cs.n, -0.0)
        assert np.signbit(einsum_to_null_space(cs, v, False)).all()
        assert_array_equal(np.signbit(_to_null_space(cs, v, False)), ~minus.ravel())


# ------------------------------------------------------- project_gradient

def test_project_gradient_row_space_and_null_space():
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    assert_allclose(project_gradient(cs, [1.0, 1.0]), [0.0, 0.0], atol=1e-14)
    assert_allclose(project_gradient(cs, [1.0, -1.0]), [1.0, -1.0], atol=1e-14)


def test_project_gradient_dense_oracle():
    A = np.array([[1.0, 2.0, 1.0], [2.0, -1.0, -3.0]])
    cs = ConstraintSystem(A=A, b=np.array([1.0, 4.0]))
    g = np.array([1.0, 1.0, 1.0])
    assert_allclose(project_gradient(cs, g), dense_projection(A) @ g, atol=1e-12)


def test_project_gradient_dimension_check():
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    with pytest.raises(DimensionMismatchError):
        project_gradient(cs, np.ones(3))


def test_vector_arguments_in_every_accepted_form():
    # the projection functions take any array with n entries and flatten it,
    # so a column-vector g gives the bytes of the flat g; A @ x and A.T @ y
    # take 1-D vectors only. Lists and integers are taken as floats.
    rng = np.random.default_rng(48)
    cs, _ = block_system(rng, [(1, 2), (2, 3), (1, 3)], free=1)
    n, m = cs.n, cs.m
    g, x = rng.standard_normal(n), rng.standard_normal(n)
    lam = multipliers(cs, g)
    ints = np.arange(n) - 4
    for shape in ((n, 1), (1, n)):
        col_g, col_x = g.reshape(shape), x.reshape(shape)
        assert project_gradient(cs, col_g).tobytes() == project_gradient(cs, g).tobytes()
        assert make_feasible(cs, col_x).tobytes() == make_feasible(cs, x).tobytes()
        assert multipliers(cs, col_g).tobytes() == lam.tobytes()
        assert residuals(cs, col_x, col_g, lam) == residuals(cs, x, g, lam)
        with pytest.raises(DimensionMismatchError):
            cs.A @ col_x
    with pytest.raises(DimensionMismatchError):
        cs.A.T @ lam.reshape(m, 1)
    as_float = ints.astype(float)
    assert (project_gradient(cs, ints.tolist()).tobytes()
            == project_gradient(cs, as_float).tobytes())
    assert make_feasible(cs, ints).tobytes() == make_feasible(cs, as_float).tobytes()
    assert (cs.A @ ints).tobytes() == (cs.A @ as_float).tobytes()
    assert (cs.A @ ints.tolist()).tobytes() == (cs.A @ as_float).tobytes()
    assert (cs.A.T @ list(range(m))).tobytes() == (cs.A.T @ np.arange(m, dtype=float)).tobytes()


def test_projection_properties_random():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        cs = random_system(rng)
        g = rng.standard_normal(cs.n)
        pg = project_gradient(cs, g)
        gnorm = np.linalg.norm(g)
        # idempotence, annihilation, non-expansion
        assert np.linalg.norm(project_gradient(cs, pg) - pg) <= 1e-10 * max(gnorm, 1.0)
        assert np.max(np.abs(cs.A @ pg)) <= 1e-10 * gnorm
        assert np.linalg.norm(pg) <= gnorm * (1.0 + 1e-12)


BLOCK_SHAPES = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 5), (4, 7)]


@st.composite
def scaled_block_systems(draw):
    """Unscaled block A0 (rows and columns permuted), row scales d, b0, g, x0.

    Each block of d * A0 is scaled by 10^U(-8, 8) and each of its rows by
    10^U(-3, 3). Row scaling keeps the null space, and with right-hand side
    d * b0 the feasible set, of the unscaled system.
    """
    blocks = draw(st.lists(st.sampled_from(BLOCK_SHAPES), min_size=1, max_size=8))
    free = draw(st.integers(0, 3))
    m = sum(r for r, _ in blocks)
    n = sum(c for _, c in blocks) + free
    assume(m < n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A0 = np.zeros((m, n))
    d = np.empty(m)
    i = j = 0
    for r, c in blocks:
        A0[i:i + r, j:j + c] = rng.standard_normal((r, c))
        d[i:i + r] = 10.0 ** rng.uniform(-8, 8) * 10.0 ** rng.uniform(-3, 3, r)
        i, j = i + r, j + c
    rows, cols = rng.permutation(m), rng.permutation(n)
    return (A0[rows][:, cols], d[rows], rng.standard_normal(m),
            rng.standard_normal(n), rng.standard_normal(n))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(scaled_block_systems())
def test_projector_properties_scaled_blocks(case):
    A0, d, b0, g, x0 = case
    A = d[:, None] * A0
    cs0 = ConstraintSystem(A=sp.csr_matrix(A0), b=b0)
    cs = ConstraintSystem(A=sp.csr_matrix(A), b=d * b0)
    assert_block_layout(cs0.projector, A0)
    assert_block_layout(cs.projector, A)
    gnorm = np.linalg.norm(g)
    pg = project_gradient(cs, g)
    assert_allclose(project_gradient(cs, pg), pg, rtol=0, atol=1e-10 * gnorm)
    assert np.all(np.abs(A @ pg) <= 1e-10 * np.linalg.norm(A, axis=1) * gnorm)
    # the unscaled system is well conditioned, so it meets the dense oracles,
    # and the scaled one must agree with it
    assert_matches_oracles(cs0, A0, np.random.default_rng(0), atol=1e-9)
    assert_allclose(pg, project_gradient(cs0, g), rtol=0, atol=1e-10 * gnorm)
    scale = 1.0 + np.linalg.norm(x0) + np.linalg.norm(b0)
    assert_allclose(make_feasible(cs, x0), make_feasible(cs0, x0),
                    rtol=0, atol=1e-9 * scale)
    assert_allclose(d * multipliers(cs, g), multipliers(cs0, g),
                    rtol=1e-8, atol=1e-10 * gnorm)


@st.composite
def one_component_systems(draw):
    """A general A whose rows and used columns form one component."""
    n = draw(st.integers(3, 12))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < draw(st.floats(0.3, 1.0)))
    A *= 10.0 ** rng.uniform(-4, 4)
    used = A[:, np.any(A, axis=0)]
    assume(np.all(np.any(A, axis=1)))
    graph = sp.bmat([[None, sp.csr_array(used)], [sp.csr_array(used.T), None]])
    assume(connected_components(graph, directed=False)[0] == 1)
    assume(np.linalg.cond(A) <= 1e3)
    return A, rng.standard_normal(m), draw(st.booleans())


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(one_component_systems())
def test_projector_properties_one_component(case):
    A, b, sparse = case
    cs = ConstraintSystem(A=sp.csr_matrix(A) if sparse else A, b=b)
    (group,) = cs.projector.groups
    assert group.rows.shape == (1, A.shape[0])
    assert_array_equal(group_columns(group)[0], np.flatnonzero(np.any(A, axis=0)))
    assert_matches_oracles(cs, A, np.random.default_rng(1), atol=1e-9)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(one_component_systems())
def test_one_component_gather_oracle_bytes(case):
    A, b, sparse = case
    cs = ConstraintSystem(A=sp.csr_matrix(A) if sparse else A, b=b)
    (group,) = assert_gather_oracle_bytes(cs, np.random.default_rng(2)).groups
    one_run = np.all(np.diff(group_columns(group).ravel()) == 1)
    assert_index(group, cs.A, slice if one_run else np.ndarray)


@st.composite
def nearly_dependent_pairs(draw):
    """Rows (a, a + delta*v), unit v orthogonal to a, with delta a factor t
    of the rank gate's threshold ``_RANK_GATE * n * |a|``: t < 1 lies below
    it, t > 1 above it, up to delta = |a|, and many t lie within 2-100% of
    1 on either side."""
    c = draw(st.integers(3, 8))
    n = c + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(c) * 10.0 ** rng.uniform(-4, 4)
    v = rng.standard_normal(c)
    v -= (v @ a) / (a @ a) * a
    v /= np.linalg.norm(v)
    t = draw(st.one_of(
        st.floats(0.5, 0.98), st.floats(1.02, 2.0),
        st.floats(0.0, -math.log10(_RANK_GATE * n)).map(lambda e: 10.0 ** e)))
    assume(not 0.98 < t < 1.02)
    below = t < 1.0
    delta = t * _RANK_GATE * n * np.linalg.norm(a)
    rows = [a, a + delta * v] if draw(st.booleans()) else [a + delta * v, a]
    cols = rng.permutation(n)[:c]
    A, basis = np.zeros((2, n)), np.zeros((2, n))
    A[:, cols] = rows
    basis[:, cols] = (a, v)
    return A, basis, delta / np.linalg.norm(a), below, rng.standard_normal(n)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(nearly_dependent_pairs())
def test_rank_gate_on_nearly_dependent_rows(case):
    A, basis, rel_delta, below, g = case
    if below:
        with pytest.raises(RankDeficientError, match=r"rows \[0, 1\]"):
            ConstraintSystem(A=sp.csr_matrix(A), b=np.zeros(2))
        return
    cs = ConstraintSystem(A=sp.csr_matrix(A), b=np.zeros(2))
    pg = project_gradient(cs, g)
    # null(A) = null(basis), and basis is well conditioned; the projection
    # is as accurate as the condition of A, |a| / delta, allows
    n, eps, gnorm = A.shape[1], np.finfo(float).eps, np.linalg.norm(g)
    assert_allclose(pg, dense_projection(basis) @ g, rtol=0,
                    atol=1e2 * n * eps / rel_delta * gnorm)
    assert np.max(np.abs(A @ pg)) <= 1e2 * n * eps * np.abs(A).sum(axis=1).max() * gnorm


# ------------------------------------------------------------ make_feasible

def test_make_feasible_keeps_feasible_points():
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    x = np.array([1.0, 3.0])
    assert_allclose(make_feasible(cs, x), x, atol=1e-12)


def test_make_feasible_hand_example():
    # least-distance projection of (-0.5, 1.5, 1) onto x + 4y + 2z = 3
    cs = ConstraintSystem(A=np.array([[1.0, 4.0, 2.0]]), b=np.array([3.0]))
    xf = make_feasible(cs, np.array([-0.5, 1.5, 1.0]))
    assert_allclose(xf, [-5.0 / 7.0, 9.0 / 14.0, 4.0 / 7.0], atol=1e-14)


def test_make_feasible_symmetric_projection():
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    assert_allclose(make_feasible(cs, np.zeros(2)), [2.0, 2.0], atol=1e-14)


def test_make_feasible_least_distance_oracles():
    rng = np.random.default_rng(5)
    for _ in range(40):
        cs = random_system(rng)
        x0 = rng.standard_normal(cs.n)
        xf = make_feasible(cs, x0)
        A = cs.A.toarray()
        assert np.max(np.abs(A @ xf - cs.b)) <= 1e-10 * (1.0 + np.max(np.abs(cs.b)))
        assert_allclose(xf, dense_feasible(A, cs.b, x0), atol=1e-9)
        # KKT system of  min ||x - x0||^2  s.t.  Ax = b
        m, n = A.shape
        kkt = np.block([[2.0 * np.eye(n), A.T], [A, np.zeros((m, m))]])
        sol = np.linalg.solve(kkt, np.concatenate([2.0 * x0, cs.b]))
        assert_allclose(xf, sol[:n], atol=1e-8)


# ------------------------------------------------------------ multipliers

def test_multipliers_hand_example():
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    g = np.array([2.0, 4.0])
    lam = multipliers(cs, g)
    assert_allclose(lam, [-3.0], atol=1e-14)
    assert_allclose(g + cs.A.toarray().T @ lam, project_gradient(cs, g), atol=1e-14)


def test_multipliers_row_space_gradient():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 8))
    cs = ConstraintSystem(A=A, b=np.zeros(3))
    w = rng.standard_normal(3)
    lam = multipliers(cs, A.T @ w)
    assert_allclose(lam, -w, atol=1e-12)
    assert_allclose(A.T @ w + A.T @ lam, 0.0, atol=1e-12)


def test_multipliers_dense_oracle():
    A = np.array([[1.0, 2.0, 1.0], [2.0, -1.0, -3.0]])
    cs = ConstraintSystem(A=A, b=np.array([1.0, 4.0]))
    g = np.array([1.0, 1.0, 1.0])
    lam_oracle = -np.linalg.solve(A @ A.T, A @ g)
    assert_allclose(multipliers(cs, g), lam_oracle, atol=1e-12)


def test_multiplier_identity_random():
    rng = np.random.default_rng(13)
    for _ in range(40):
        cs = random_system(rng)
        g = rng.standard_normal(cs.n)
        lhs = g + cs.A.toarray().T @ multipliers(cs, g)
        assert np.linalg.norm(lhs - project_gradient(cs, g)) <= 1e-10 * np.linalg.norm(g)


# -------------------------------------------------------------- residuals

def test_residuals_zero_at_stationary_feasible():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((2, 6))
    b = rng.standard_normal(2)
    cs = ConstraintSystem(A=A, b=b)
    x = make_feasible(cs, rng.standard_normal(6))
    g = A.T @ rng.standard_normal(2)  # gradient in the row space
    kkt, feas = residuals(cs, x, g, multipliers(cs, g))
    assert kkt <= 1e-10 and feas <= 1e-10


def test_residuals_at_pair_optimum():
    # per-pair optimum of  min x^2 + 10 y^2  s.t.  x + y = 4
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    x = np.array([40.0 / 11.0, 4.0 / 11.0])
    g = np.array([2.0 * x[0], 20.0 * x[1]])
    kkt, feas = residuals(cs, x, g, multipliers(cs, g))
    assert kkt <= 1e-10 and feas <= 1e-10


def test_residuals_infeasible_start():
    cs = ConstraintSystem(A=np.array([[1.0, 4.0, 2.0]]), b=np.array([3.0]))
    x0 = np.array([-0.5, 1.5, 1.0])
    _, feas = residuals(cs, x0, np.zeros(3), np.zeros(1))
    assert abs(feas - 4.5) < 1e-12
