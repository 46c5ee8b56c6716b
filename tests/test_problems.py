"""Benchmark problem construction: formulas, constraints, starts, optima."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eqflow import (BadDimensionError, PAPER_DIMS, PROBLEM_IDS, build, factor,
                    gradient_check, known_optima, project_gradient)
from eqflow.problems import _Spec, _evaluator

FEASIBLE_STARTS = ("ex1", "ex5", "ex9", "ex10")
INFEASIBLE_STARTS = ("ex2", "ex3", "ex4", "ex6", "ex7", "ex8")

# independent scalar re-implementations of the block objectives
_BLOCK_FORMULAS = {
    "ex1": (2, lambda v: v[0] ** 2 + 10 * v[1] ** 2, 0.0),
    "ex2": (2, lambda v: (v[0] - 2) ** 2 + 2 * (v[1] - 1) ** 2, -5.0),
    "ex3": (3, lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2, 0.0),
    "ex4": (2, lambda v: v[0] ** 2 + v[1] ** 6, -1.0),
    "ex5": (2, lambda v: (v[0] - 2) ** 4 + 2 * (v[1] - 1) ** 6, -5.0),
    "ex6": (3, lambda v: v[0] ** 2 + v[1] ** 4 + v[2] ** 6, 0.0),
    "ex7": (2, lambda v: v[0] ** 4 + 3 * v[1] ** 2, 0.0),
    "ex8": (3, lambda v: v[0] ** 2 + v[0] ** 2 * v[2] ** 2 + 2 * v[0] * v[1]
            + v[1] ** 4 + 8 * v[1], 0.0),
    "ex9": (2, lambda v: v[0] ** 4 + 10 * v[1] ** 6, 0.0),
    "ex10": (3, lambda v: v[0] ** 8 + v[1] ** 6 + v[2] ** 2, 0.0),
}


def feas_inf(problem, x):
    return float(np.max(np.abs(problem.cs.A @ x - problem.cs.b)))


def test_build_ex1_small():
    p = build("ex1", 4)
    assert p.objective(np.full(4, 2.0)) == pytest.approx(88.0)
    assert_allclose(np.asarray(p.cs.A.toarray()),
                    [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert_allclose(p.cs.b, [4.0, 4.0])
    assert feas_inf(p, p.x0) == 0.0


def test_build_ex10_small():
    p = build("ex10", 3)
    assert p.objective(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert feas_inf(p, p.x0) == 0.0


def test_ex3_block_optimum_is_stationary():
    p = build("ex3", 3)
    x = np.array([16.0 / 15.0, 1.0 / 3.0, -11.0 / 15.0])
    assert p.objective(x) == pytest.approx(402.0 / 225.0, rel=1e-14)
    assert feas_inf(p, x) <= 1e-12
    pg = project_gradient(factor(p.cs), p.gradient(x))
    assert np.max(np.abs(pg)) <= 1e-12


def test_dimension_rules():
    with pytest.raises(BadDimensionError):
        build("ex1", 7)
    with pytest.raises(BadDimensionError):
        build("ex2", 15)  # divisible by 3 but not 6
    with pytest.raises(BadDimensionError):
        build("ex10", 0)
    with pytest.raises(BadDimensionError):
        build("ex99", 12)
    build("ex2", 12)  # smallest interesting ex2


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_m_relation(pid):
    n = 24
    p = build(pid, n)
    expected = {"ex1": n // 2, "ex2": n // 3, "ex3": 2 * n // 3,
                "ex4": n // 2, "ex5": n // 2, "ex6": 2 * n // 3,
                "ex7": n // 2, "ex8": n // 3, "ex9": n // 2,
                "ex10": n // 3}[pid]
    assert p.m == expected == p.cs.A.shape[0]


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_objective_matches_blockwise_oracle(pid):
    n = 24
    p = build(pid, n)
    rng = np.random.default_rng(sum(map(ord, pid)))
    width, block_f, const = _BLOCK_FORMULAS[pid]
    for _ in range(5):
        x = rng.standard_normal(n)
        oracle = sum(block_f(x[i:i + width]) for i in range(0, n, width)) + const
        assert p.objective(x) == pytest.approx(oracle, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("pid", FEASIBLE_STARTS)
def test_feasible_starts_exact(pid):
    p = build(pid, 24)
    assert feas_inf(p, p.x0) == 0.0


@pytest.mark.parametrize("pid", INFEASIBLE_STARTS)
def test_infeasible_starts_detected(pid):
    p = build(pid, 24)
    assert feas_inf(p, p.x0) > 0.0


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_gradient_against_finite_differences(pid):
    p = build(pid, 12)
    report = gradient_check(p, num_points=4, seed=3)
    assert report.max_rel_error <= 1e-5
    assert report.coord_errors.shape == (12,)


def test_ex9_gradient_block_values():
    p = build("ex9", 6)
    g = p.gradient(np.full(6, 2.0))
    assert_allclose(g[0::2], 32.0)    # d/dx x^4 at 2
    assert_allclose(g[1::2], 1920.0)  # d/dy 10 y^6 at 2


def test_ex2_x0_padding():
    p = build("ex2", 12)
    assert_allclose(p.x0[:3], [-0.5, 1.5, 1.0])
    assert_allclose(p.x0[3:], 0.0)
    # first constraint block evaluates to 7.5, the rest to 0
    r = p.cs.A @ p.x0
    assert r[0] == pytest.approx(7.5)
    assert_allclose(r[1:], 0.0)


def test_known_optima():
    pattern, f1 = known_optima("ex1", 5000)
    assert_allclose(pattern, [40.0 / 11.0, 4.0 / 11.0])
    assert f1 == pytest.approx(2500 * 160.0 / 11.0)
    _, f3 = known_optima("ex3", 4800)
    assert f3 == pytest.approx(1600 * 402.0 / 225.0)
    assert known_optima("ex8", 4800) is None
    assert known_optima("ex2", 120) is None
    none_pattern, f2 = known_optima("ex2", PAPER_DIMS["ex2"])
    assert none_pattern is None and f2 == pytest.approx(5.78e3)


def test_build_attaches_known_f_star():
    assert build("ex1", 10).known_f_star == pytest.approx(5 * 160.0 / 11.0)
    assert build("ex8", 12).known_f_star is None
    assert build("ex5", 5000).known_f_star == pytest.approx(432.15)
    assert build("ex5", 120).known_f_star is None


# ------------------------------------------- the derivation rule, property

@st.composite
def monomial_tables(draw):
    """A random table entry (objective fields only) and points to test at."""
    w = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        exponents = draw(st.lists(st.integers(0, 8), min_size=w, max_size=w))
        if not any(exponents):  # every term has a variable
            exponents[draw(st.integers(0, w - 1))] = draw(st.integers(1, 8))
        terms.append((draw(st.floats(-3.0, 3.0)), tuple(exponents)))
    shift = tuple(draw(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                                min_size=w, max_size=w)))
    spec = _Spec(w, tuple(terms), ((1.0,) * w,), (1.0,), (0.0,),
                 shift=shift, const=draw(st.floats(-10.0, 10.0)))
    n = w * draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return spec, rng.uniform(-1.0, 1.0, size=(3, n))


def _scalar_terms(spec, x):
    """Every term of every block, one scalar product at a time."""
    return [c * math.prod((float(x[i + k]) - spec.shift[k]) ** e
                          for k, e in enumerate(exponents))
            for i in range(0, len(x), spec.width)
            for c, exponents in spec.terms]


@settings(derandomize=True, database=None, deadline=None)
@given(monomial_tables())
def test_evaluator_derives_objective_and_gradient(case):
    spec, points = case
    objective, gradient = _evaluator(spec)
    for x in points:
        terms = _scalar_terms(spec, x)
        scale = 1.0 + sum(abs(t) for t in terms) + abs(spec.const)
        assert objective(x) == pytest.approx(math.fsum(terms) + spec.const,
                                             rel=0.0, abs=1e-13 * scale)
        g = gradient(x)
        assert g.shape == x.shape
        for i in range(len(x)):
            h = 1e-6 * (1.0 + abs(x[i]))
            e = np.zeros(len(x))
            e[i] = h
            fd = (objective(x + e) - objective(x - e)) / (2.0 * h)
            assert abs(fd - g[i]) <= 1e-6 * (1.0 + abs(g[i])) + 1e-9 * scale
