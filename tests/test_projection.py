"""Projection layer: factorization, projections, multipliers, residuals.

Dense oracles are built directly from A (explicit inverses / KKT solves),
independently of the component-wise QR path under test.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.sparse.csgraph import connected_components

from eqflow import (ConstraintSystem, DimensionMismatchError,
                    RankDeficientError, build, factor, make_feasible,
                    multipliers, project_gradient, residuals)
from eqflow.projection import _column_components


def dense_projection(A):
    A = np.asarray(A, float)
    return np.eye(A.shape[1]) - A.T @ np.linalg.inv(A @ A.T) @ A


def dense_feasible(A, b, x0):
    A = np.asarray(A, float)
    return x0 - A.T @ np.linalg.solve(A @ A.T, A @ x0 - b)


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
    p = factor(cs)
    m, n = A.shape
    g = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    assert_allclose(project_gradient(p, g), dense_projection(A) @ g, atol=atol)
    assert_allclose(make_feasible(p, x0), dense_feasible(A, cs.b, x0), atol=atol)
    kkt = np.block([[np.eye(n), A.T], [A, np.zeros((m, m))]])
    lam = np.linalg.solve(kkt, np.concatenate([-g, np.zeros(m)]))[n:]
    assert_allclose(multipliers(p, g), lam, atol=atol)


def test_factor_1x2_hand():
    # x + y = 4: P = I - 11^T/2, least-distance point of 0 is (2, 2), and
    # lam = -(g_x + g_y)/2
    p = factor(ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0])))
    assert_allclose(project_gradient(p, [1.0, 0.0]), [0.5, -0.5], atol=1e-15)
    assert_allclose(make_feasible(p, [0.0, 0.0]), [2.0, 2.0], atol=1e-14)
    assert_allclose(multipliers(p, [2.0, 4.0]), [-3.0], atol=1e-14)


def test_factor_identity_column():
    # variables in no constraint pass through every projection unchanged
    p = factor(ConstraintSystem(A=np.array([[1.0, 0.0]]), b=np.array([3.0])))
    assert_allclose(project_gradient(p, [5.0, 7.0]), [0.0, 7.0], atol=1e-15)
    assert_allclose(make_feasible(p, [1.0, 7.0]), [3.0, 7.0], atol=1e-15)
    assert_allclose(multipliers(p, [5.0, 7.0]), [-5.0], atol=1e-15)
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
        assert_matches_oracles(cs, A, rng)


def test_factor_reconstructs_at():
    # the block factors span exactly the rows of A: for g = A^T w the
    # projection vanishes and the multipliers return -w
    rng = np.random.default_rng(11)
    for _ in range(20):
        cs, A = block_system(rng, [(1, 2), (2, 3), (2, 2 + rng.integers(1, 4))])
        p = factor(cs)
        w = rng.standard_normal(cs.m)
        assert_allclose(project_gradient(p, A.T @ w), 0.0, atol=1e-12)
        assert_allclose(multipliers(p, A.T @ w), -w, atol=1e-12)


def test_factor_permuted_rows_and_columns():
    # permuting rows and columns of A permutes the results accordingly
    rng = np.random.default_rng(29)
    for _ in range(10):
        cs, A = block_system(rng, [(1, 2)] * 4 + [(2, 3)] * 3 + [(1, 3)] * 2)
        rp, cp = rng.permutation(cs.m), rng.permutation(cs.n)
        p = factor(cs)
        pp = factor(ConstraintSystem(A=sp.csr_matrix(A[rp][:, cp]), b=cs.b[rp]))
        g = rng.standard_normal(cs.n)
        x0 = rng.standard_normal(cs.n)
        assert_allclose(project_gradient(pp, g[cp]), project_gradient(p, g)[cp],
                        atol=1e-12)
        assert_allclose(make_feasible(pp, x0[cp]), make_feasible(p, x0)[cp],
                        atol=1e-12)
        assert_allclose(multipliers(pp, g[cp]), multipliers(p, g)[rp], atol=1e-12)


def test_factor_general_dense_matches_oracle():
    # a dense A is one component, narrow (m << n) or wide (m close to n)
    rng = np.random.default_rng(7)
    for _ in range(40):
        cs = random_system(rng, n_max=30)
        assert_matches_oracles(cs, np.asarray(cs.A, float), rng, atol=1e-9)


def test_factor_rank_deficient():
    cs = ConstraintSystem(A=np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]),
                          b=np.zeros(2))
    with pytest.raises(RankDeficientError):
        factor(cs)
    rng = np.random.default_rng(31)
    _, A = block_system(rng, [(1, 2), (2, 3), (1, 3)], free=2)
    zero_row = np.vstack([A, np.zeros(A.shape[1])])
    with pytest.raises(RankDeficientError, match=r"row\(s\) \[4\]"):
        factor(ConstraintSystem(A=sp.csr_matrix(zero_row), b=np.zeros(5)))
    # a stored zero keeps the row in a block; the rank gate then rejects it
    csr = sp.csr_matrix(zero_row)
    stored = sp.csr_matrix((np.append(csr.data, 0.0), np.append(csr.indices, 0),
                            np.append(csr.indptr[:-1], csr.nnz + 1)),
                           shape=zero_row.shape)
    with pytest.raises(RankDeficientError):
        factor(ConstraintSystem(A=stored, b=np.zeros(5)))
    # two dependent rows inside one 2x3 block
    block = np.zeros((3, 6))
    block[0, :2] = (1.0, 1.0)
    block[1:, 2:5] = ((1.0, 2.0, 1.0), (2.0, 4.0, 2.0))
    with pytest.raises(RankDeficientError, match=r"rows \[1, 2\]"):
        factor(ConstraintSystem(A=sp.csr_matrix(block), b=np.zeros(3)))
    # a component with more rows than variables
    tall = np.zeros((3, 5))
    tall[:, :2] = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    with pytest.raises(RankDeficientError, match=r"rows \[0, 1, 2\]"):
        factor(ConstraintSystem(A=tall, b=np.zeros(3)))


def test_factor_rank_gate_per_component():
    # full-rank blocks 1e16 apart in scale: each is judged on its own R
    A = np.array([[1e8, 1e8, 0.0, 0.0], [0.0, 0.0, 1e-8, 1e-8]])
    cs = ConstraintSystem(A=sp.csr_matrix(A), b=np.array([4.0, 2e-8]))
    p = factor(cs)
    g = np.array([1.0, 3.0, -2.0, 6.0])
    assert_allclose(project_gradient(p, g), dense_projection(A) @ g, atol=1e-14)
    assert_allclose(project_gradient(p, g), [-1.0, 1.0, -4.0, 4.0], atol=1e-14)
    assert_allclose(make_feasible(p, np.zeros(4)), [2e-8, 2e-8, 1.0, 1.0],
                    rtol=1e-14)
    assert_allclose(multipliers(p, g), [-2e-8, -2e8], rtol=1e-14)
    # a dependent pair or a stored-zero row at the small scale still fails
    pair = np.zeros((3, 6))
    pair[0, :2] = 1e8
    pair[1:, 2:5] = 1e-8 * np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0]])
    with pytest.raises(RankDeficientError, match=r"rows \[1, 2\]"):
        factor(ConstraintSystem(A=sp.csr_matrix(pair), b=np.zeros(3)))
    stored = sp.csr_matrix((np.array([1e8, 1e8, 0.0]), np.array([0, 1, 2]),
                            np.array([0, 2, 3])), shape=(2, 4))
    with pytest.raises(RankDeficientError, match=r"rows \[1\]"):
        factor(ConstraintSystem(A=stored, b=np.zeros(2)))


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
        cols = A.indices.astype(np.intp)
        rows = np.repeat(np.arange(m), np.diff(A.indptr))
        label = _column_components(n, A.indptr[:-1], cols, rows)
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
    p = factor(build("ex3", n).cs)
    assert array_bytes(p) <= 100 * n


def test_constraint_system_shape_validation():
    with pytest.raises(DimensionMismatchError):
        ConstraintSystem(A=np.ones((2, 2)), b=np.zeros(2))  # m == n
    with pytest.raises(DimensionMismatchError):
        ConstraintSystem(A=np.ones((1, 3)), b=np.zeros(2))  # wrong b length


# ------------------------------------------------------- project_gradient

def test_project_gradient_row_space_and_null_space():
    p = factor(ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0])))
    assert_allclose(project_gradient(p, [1.0, 1.0]), [0.0, 0.0], atol=1e-14)
    assert_allclose(project_gradient(p, [1.0, -1.0]), [1.0, -1.0], atol=1e-14)


def test_project_gradient_dense_oracle():
    A = np.array([[1.0, 2.0, 1.0], [2.0, -1.0, -3.0]])
    p = factor(ConstraintSystem(A=A, b=np.array([1.0, 4.0])))
    g = np.array([1.0, 1.0, 1.0])
    assert_allclose(project_gradient(p, g), dense_projection(A) @ g, atol=1e-12)


def test_project_gradient_dimension_check():
    p = factor(ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0])))
    with pytest.raises(DimensionMismatchError):
        project_gradient(p, np.ones(3))


def test_projection_properties_random():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        cs = random_system(rng)
        p = factor(cs)
        g = rng.standard_normal(cs.n)
        pg = project_gradient(p, g)
        gnorm = np.linalg.norm(g)
        # idempotence, annihilation, non-expansion
        assert np.linalg.norm(project_gradient(p, pg) - pg) <= 1e-10 * max(gnorm, 1.0)
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
    p0, p = factor(cs0), factor(ConstraintSystem(A=sp.csr_matrix(A), b=d * b0))
    gnorm = np.linalg.norm(g)
    pg = project_gradient(p, g)
    assert_allclose(project_gradient(p, pg), pg, rtol=0, atol=1e-10 * gnorm)
    assert np.all(np.abs(A @ pg) <= 1e-10 * np.linalg.norm(A, axis=1) * gnorm)
    # the unscaled system is well conditioned, so it meets the dense oracles,
    # and the scaled one must agree with it
    assert_matches_oracles(cs0, A0, np.random.default_rng(0), atol=1e-9)
    assert_allclose(pg, project_gradient(p0, g), rtol=0, atol=1e-10 * gnorm)
    scale = 1.0 + np.linalg.norm(x0) + np.linalg.norm(b0)
    assert_allclose(make_feasible(p, x0), make_feasible(p0, x0),
                    rtol=0, atol=1e-9 * scale)
    assert_allclose(d * multipliers(p, g), multipliers(p0, g),
                    rtol=1e-8, atol=1e-10 * gnorm)


# ------------------------------------------------------------ make_feasible

def test_make_feasible_keeps_feasible_points():
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    p = factor(cs)
    x = np.array([1.0, 3.0])
    assert_allclose(make_feasible(p, x), x, atol=1e-12)


def test_make_feasible_hand_example():
    # least-distance projection of (-0.5, 1.5, 1) onto x + 4y + 2z = 3
    cs = ConstraintSystem(A=np.array([[1.0, 4.0, 2.0]]), b=np.array([3.0]))
    xf = make_feasible(factor(cs), np.array([-0.5, 1.5, 1.0]))
    assert_allclose(xf, [-5.0 / 7.0, 9.0 / 14.0, 4.0 / 7.0], atol=1e-14)


def test_make_feasible_symmetric_projection():
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    assert_allclose(make_feasible(factor(cs), np.zeros(2)), [2.0, 2.0], atol=1e-14)


def test_make_feasible_least_distance_oracles():
    rng = np.random.default_rng(5)
    for _ in range(40):
        cs = random_system(rng)
        x0 = rng.standard_normal(cs.n)
        xf = make_feasible(factor(cs), x0)
        A = np.asarray(cs.A, float)
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
    p = factor(cs)
    g = np.array([2.0, 4.0])
    lam = multipliers(p, g)
    assert_allclose(lam, [-3.0], atol=1e-14)
    assert_allclose(g + np.asarray(cs.A).T @ lam, project_gradient(p, g), atol=1e-14)


def test_multipliers_row_space_gradient():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 8))
    p = factor(ConstraintSystem(A=A, b=np.zeros(3)))
    w = rng.standard_normal(3)
    lam = multipliers(p, A.T @ w)
    assert_allclose(lam, -w, atol=1e-12)
    assert_allclose(A.T @ w + A.T @ lam, 0.0, atol=1e-12)


def test_multipliers_dense_oracle():
    A = np.array([[1.0, 2.0, 1.0], [2.0, -1.0, -3.0]])
    p = factor(ConstraintSystem(A=A, b=np.array([1.0, 4.0])))
    g = np.array([1.0, 1.0, 1.0])
    lam_oracle = -np.linalg.solve(A @ A.T, A @ g)
    assert_allclose(multipliers(p, g), lam_oracle, atol=1e-12)


def test_multiplier_identity_random():
    rng = np.random.default_rng(13)
    for _ in range(40):
        cs = random_system(rng)
        p = factor(cs)
        g = rng.standard_normal(cs.n)
        lhs = g + np.asarray(cs.A, float).T @ multipliers(p, g)
        assert np.linalg.norm(lhs - project_gradient(p, g)) <= 1e-10 * np.linalg.norm(g)


# -------------------------------------------------------------- residuals

def test_residuals_zero_at_stationary_feasible():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((2, 6))
    b = rng.standard_normal(2)
    cs = ConstraintSystem(A=A, b=b)
    p = factor(cs)
    x = make_feasible(p, rng.standard_normal(6))
    g = A.T @ rng.standard_normal(2)  # gradient in the row space
    kkt, feas = residuals(p, cs, x, g, multipliers(p, g))
    assert kkt <= 1e-10 and feas <= 1e-10


def test_residuals_at_pair_optimum():
    # per-pair optimum of  min x^2 + 10 y^2  s.t.  x + y = 4
    cs = ConstraintSystem(A=np.array([[1.0, 1.0]]), b=np.array([4.0]))
    p = factor(cs)
    x = np.array([40.0 / 11.0, 4.0 / 11.0])
    g = np.array([2.0 * x[0], 20.0 * x[1]])
    kkt, feas = residuals(p, cs, x, g, multipliers(p, g))
    assert kkt <= 1e-10 and feas <= 1e-10


def test_residuals_infeasible_start():
    cs = ConstraintSystem(A=np.array([[1.0, 4.0, 2.0]]), b=np.array([3.0]))
    p = factor(cs)
    x0 = np.array([-0.5, 1.5, 1.0])
    _, feas = residuals(p, cs, x0, np.zeros(3), np.zeros(1))
    assert abs(feas - 4.5) < 1e-12
