"""Single-pair quasi-Newton direction: gate, matrix-free formula, spectrum."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eqflow import CurvaturePair, DimensionMismatchError, direction
from eqflow.direction import curvature_gate
from oracles import dense_h

THETA = 1e-6


def gated_pair(rng, n):
    """Random pair that passes the curvature gate."""
    while True:
        pair = CurvaturePair.from_step(rng.standard_normal(n),
                                       rng.standard_normal(n))
        if curvature_gate(pair, THETA):
            return pair


# ------------------------------------------------------------------ gate

def test_gate_orthogonal_pair():
    pair = CurvaturePair.from_step([1.0, 0.0], [0.0, 1.0])
    assert not curvature_gate(pair, THETA)


def test_gate_passes():
    pair = CurvaturePair.from_step([1.0, 1.0], [1.0, 0.0])
    assert curvature_gate(pair, THETA)


def test_gate_degenerate():
    assert not curvature_gate(None, THETA)
    assert not curvature_gate(CurvaturePair.from_step([0.0, 0.0], [1.0, 2.0]), THETA)


def test_gate_negative_curvature_passes():
    # the gate uses |s.y|, so negative curvature still updates
    pair = CurvaturePair.from_step([1.0, 0.0], [-1.0, 0.0])
    assert curvature_gate(pair, THETA)


# ------------------------------------------------------------- direction

def test_direction_identity_branch():
    assert_allclose(direction([3.0, -2.0], None, THETA), [-3.0, 2.0])


def test_direction_hand_example():
    # s=(1,1), y=(1,0) gives H = [[1,1],[1,3]]
    pair = CurvaturePair.from_step([1.0, 1.0], [1.0, 0.0])
    assert_allclose(dense_h(pair, THETA, 2), [[1.0, 1.0], [1.0, 3.0]], atol=1e-15)
    assert_allclose(direction([1.0, 2.0], pair, THETA), [-3.0, -7.0], atol=1e-14)


def test_direction_collapses_for_parallel_pair():
    pair = CurvaturePair.from_step([2.0, 1.0], [4.0, 2.0])
    pg = np.array([0.3, -0.7])
    assert_allclose(direction(pg, pair, THETA), -pg, atol=1e-14)
    assert_allclose(dense_h(pair, THETA, 2), np.eye(2), atol=1e-14)


def test_direction_shape_check():
    pair = CurvaturePair.from_step([1.0, 1.0], [1.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        direction(np.ones(3), pair, THETA)
    with pytest.raises(DimensionMismatchError):
        CurvaturePair.from_step(np.ones(3), np.ones(2))


def test_direction_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = rng.integers(2, 51)
        pair = gated_pair(rng, n)
        pg = rng.standard_normal(n)
        d = direction(pg, pair, THETA)
        oracle = -dense_h(pair, THETA, n) @ pg
        assert np.linalg.norm(d - oracle) <= 1e-12 * max(np.linalg.norm(d), 1e-30)


def test_descent_margin():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = rng.integers(2, 51)
        pair = gated_pair(rng, n)
        pg = rng.standard_normal(n)
        pg_sq = pg @ pg
        assert direction(pg, pair, THETA) @ pg <= -0.5 * pg_sq + 1e-10 * pg_sq


def test_scaling_secant_property():
    # when the gate passes, H y = (y.y / y.s) s, i.e. direction(-y) equals it
    rng = np.random.default_rng(44)
    for _ in range(50):
        pair = gated_pair(rng, 12)
        expected = (pair.y_sq / pair.s_dot_y) * pair.s
        got = direction(-pair.y, pair, THETA)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


# --------------------------------------------------------------- dense_h

def test_dense_h_identity_when_ungated():
    assert_allclose(dense_h(None, THETA, 4), np.eye(4))


def test_dense_h_spectrum_random():
    rng = np.random.default_rng(45)
    for _ in range(50):
        n = int(rng.integers(3, 51))
        h = dense_h(gated_pair(rng, n), THETA, n)
        assert_allclose(h, h.T, atol=1e-12)
        mu = np.sort(np.linalg.eigvalsh(h))
        assert mu[0] > 0.5 - 1e-8
        # all but the two extreme eigenvalues equal one; the extremes
        # bracket 1 and satisfy 1/mu_min + 1/mu_max = 2
        interior = np.sort(np.abs(mu - 1.0))[: n - 2]
        assert np.max(interior, initial=0.0) <= 1e-8
        assert abs(1.0 / mu[0] + 1.0 / mu[-1] - 2.0) <= 1e-8


def test_dense_h_inverse_identity():
    rng = np.random.default_rng(46)
    for _ in range(30):
        pair = gated_pair(rng, 10)
        h = dense_h(pair, THETA, 10)
        b = (np.eye(10)
             - np.outer(pair.s, pair.s) / pair.s_sq
             + np.outer(pair.y, pair.y) / pair.y_sq)
        assert_allclose(np.linalg.inv(h), b, atol=1e-8)
