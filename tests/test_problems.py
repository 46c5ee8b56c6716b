"""Benchmark problem construction: formulas, constraints, starts, optima."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eqflow import (BadDimensionError, ConstraintSystem, NonFiniteError,
                    PAPER_DIMS, PROBLEM_IDS, Problem, build, factor,
                    gradient_check, known_optima, make_feasible,
                    project_gradient, solve)
from eqflow.problems import _TABLE, _Spec, _evaluator
from oracles import ex8_block_minimum

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


@pytest.mark.parametrize("pid", [pid for pid, spec in _TABLE.items()
                                 if spec.optimum is not None])
def test_block_optimum_is_stationary(pid):
    # the stated minimizer of one block is feasible, stationary and has
    # the stated value
    block, f_block = _TABLE[pid].optimum
    p = build(pid, len(block))
    x = np.array(block)
    assert p.objective(x) == pytest.approx(f_block, rel=1e-14)
    assert p.block_values(x).sum() == pytest.approx(f_block, rel=1e-14)
    assert feas_inf(p, x) <= 1e-12
    pg = project_gradient(factor(p.cs), p.gradient(x))
    assert np.max(np.abs(pg)) <= 1e-12


def test_table_rows_state_one_known_optimum():
    for pid, spec in _TABLE.items():
        assert (spec.optimum is None) != (spec.reference is None), pid


def test_paper_dims_come_from_the_table():
    assert PAPER_DIMS == {"ex1": 5000, "ex2": 4800, "ex3": 4800, "ex4": 5000,
                          "ex5": 5000, "ex6": 4800, "ex7": 5000, "ex8": 4800,
                          "ex9": 5000, "ex10": 4800}
    for pid, n in PAPER_DIMS.items():
        assert n == _TABLE[pid].paper_n
        assert build(pid, n).n == n  # passes the divisibility rule


def test_problem_takes_its_sizes_from_the_constraints():
    assert [f.name for f in dataclasses.fields(Problem)] == [
        "name", "objective", "gradient", "cs", "x0", "block_values"]
    cs = ConstraintSystem(A=np.array([[1.0, 2.0, 2.0]]), b=np.array([1.0]))
    with pytest.raises(TypeError):
        Problem(name="demo", n=3, objective=np.sum, gradient=np.ones_like,
                cs=cs, x0=np.zeros(3))
    p = Problem(name="demo", objective=np.sum, gradient=np.ones_like, cs=cs,
                x0=np.zeros(3))
    assert p.n == 3 and dataclasses.replace(p, x0=np.ones(3)).n == 3


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
    assert p.cs.m == expected == p.cs.A.shape[0]


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


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_objective_is_const_plus_block_values(pid):
    # the objective sums the very array the grouped check differences
    p = build(pid, 24)
    rng = np.random.default_rng(41)
    for x in [p.x0] + list(rng.uniform(-2.0, 2.0, size=(5, 24))):
        values = p.block_values(x)
        assert values.shape == (24 // _TABLE[pid].width,)
        assert p.objective(x) == _TABLE[pid].const + values.sum()


def _with_wrong_coordinate(p, k):
    """p with its gradient off by 1% (guarded) in coordinate k alone."""
    def gradient(x):
        g = p.gradient(x).copy()
        g[k] += 0.01 * (1.0 + abs(g[k]))
        return g
    return dataclasses.replace(p, gradient=gradient)


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_gradient_check_flags_one_wrong_coordinate(pid):
    # the error lands on the wrong coordinate, grouped or one block of n
    k = 13
    bad = _with_wrong_coordinate(build(pid, 24), k)
    for problem in (bad, dataclasses.replace(bad, block_values=None)):
        errors = gradient_check(problem, num_points=3, seed=5).coord_errors
        assert errors[k] > 1e-5
        assert np.all(np.delete(errors, k) <= 1e-5)


def _counted(fn, calls):
    def counted(x):
        calls.append(1)
        return fn(x)
    return counted


def _no_objective(x):
    raise AssertionError("the grouped check called the objective")


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_gradient_check_call_counts(pid):
    n, points = 24, 3
    p = build(pid, n)
    calls = []
    gradient_check(dataclasses.replace(p, objective=_no_objective,
                                       block_values=_counted(p.block_values, calls)),
                   num_points=points)
    # 2 per block column and point, plus one to count the blocks
    assert len(calls) == 1 + 2 * _TABLE[pid].width * points
    calls.clear()
    gradient_check(dataclasses.replace(p, objective=_counted(p.objective, calls),
                                       block_values=None),
                   num_points=points)
    assert len(calls) == 2 * n * points


def _per_coordinate_errors(problem, num_points, seed):
    """The check one coordinate at a time over the whole objective."""
    proj = factor(problem.cs)
    base = make_feasible(proj, problem.x0)
    rng = np.random.default_rng(seed)
    n = problem.n
    worst = np.zeros(n)
    for j in range(num_points):
        x = base
        if j > 0:
            x = base + project_gradient(proj, rng.normal(scale=0.25, size=n))
        g = np.asarray(problem.gradient(x), dtype=float)
        fd = np.empty(n)
        for i in range(n):
            h = 1e-6 * (1.0 + abs(x[i]))
            e = np.zeros(n)
            e[i] = h
            fd[i] = (problem.objective(x + e) - problem.objective(x - e)) / (2.0 * h)
        err = np.abs(fd - g) / (1.0 + np.abs(g))
        worst = np.maximum(worst, err)
    return worst


def _coupled_problem():
    """A user problem that is not separable: log(1 + |x|^2) + (sum x)^3."""
    rng = np.random.default_rng(43)
    A = rng.standard_normal((2, 6))

    def objective(x):
        return float(np.log1p(x @ x) + x.sum() ** 3)

    def gradient(x):
        return 2.0 * x / (1.0 + x @ x) + 3.0 * x.sum() ** 2

    return Problem(name="coupled", objective=objective,
                   gradient=gradient, cs=ConstraintSystem(A=A, b=np.ones(2)),
                   x0=rng.standard_normal(6))


@pytest.mark.parametrize("pid", PROBLEM_IDS + ("coupled",))
def test_user_problem_report_is_per_coordinate(pid):
    # without block_values, every coordinate gets exactly the central
    # difference of the whole objective
    if pid == "coupled":
        p = _coupled_problem()
    else:
        p = dataclasses.replace(build(pid, 24), block_values=None)
    report = gradient_check(p, num_points=4, seed=9)
    expected = _per_coordinate_errors(p, 4, 9)
    assert report.coord_errors.tobytes() == expected.tobytes()
    assert report.max_rel_error == expected.max() <= 1e-5


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
    assert known_optima("ex8", 4800) == (None, -12124.458370231)
    assert known_optima("ex8", 120) is None
    assert known_optima("ex2", 120) is None
    none_pattern, f2 = known_optima("ex2", PAPER_DIMS["ex2"])
    assert none_pattern is None and f2 == pytest.approx(5.78e3)


def test_ex8_reference_is_the_block_minimum():
    # every one of the 1600 blocks at n = 4800 holds the global block minimum
    _, f8 = known_optima("ex8", 4800)
    assert f8 == pytest.approx(1600 * ex8_block_minimum(), rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_start_is_named(bad):
    p = build("ex1", 12)
    x0 = p.x0.copy()
    x0[3] = bad
    p = dataclasses.replace(p, x0=x0)
    message = rf"x0\[3\] = {bad} is not finite \(1 in all\)"
    with pytest.raises(NonFiniteError, match=message):
        solve(p)
    with pytest.raises(NonFiniteError, match=message):
        gradient_check(p)


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
    const = draw(st.floats(-10.0, 10.0))
    n = w * draw(st.integers(1, 4))
    spec = _Spec(w, tuple(terms), ((1.0,) * w,), (1.0,), (0.0,), n,
                 shift=shift, const=const)
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
    objective, gradient, block_values = _evaluator(spec)
    for x in points:
        terms = _scalar_terms(spec, x)
        scale = 1.0 + sum(abs(t) for t in terms) + abs(spec.const)
        assert objective(x) == pytest.approx(math.fsum(terms) + spec.const,
                                             rel=0.0, abs=1e-13 * scale)
        values = block_values(x)
        per_block = len(spec.terms)
        assert values.shape == (len(terms) // per_block,)
        for k, value in enumerate(values):
            block = terms[k * per_block:(k + 1) * per_block]
            assert value == pytest.approx(math.fsum(block), rel=0.0,
                                          abs=1e-13 * (1.0 + sum(map(abs, block))))
        assert objective(x) == spec.const + values.sum()
        g = gradient(x)
        assert g.shape == x.shape
        for i in range(len(x)):
            h = 1e-6 * (1.0 + abs(x[i]))
            e = np.zeros(len(x))
            e[i] = h
            fd = (objective(x + e) - objective(x - e)) / (2.0 * h)
            assert abs(fd - g[i]) <= 1e-6 * (1.0 + abs(g[i])) + 1e-9 * scale
