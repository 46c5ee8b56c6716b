"""Benchmark problem construction: formulas, constraints, starts, optima."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eqflow import (DESK_DIM, BadDimensionError, ConstraintSystem,
                    DimensionMismatchError, NonFiniteError, PAPER_DIMS,
                    PROBLEM_IDS, Problem, build, gradient_check, known_optima,
                    make_feasible, project_gradient)
from eqflow.problems import _EVALUATORS, _TABLE, _Spec, _evaluator, _power
from eqflow.projection import _to_null_space
from oracles import ex8_block_minimum, grouped_check_errors

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
    pg = project_gradient(p.cs, p.gradient(x))
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


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_block_values_of_a_stack_are_those_of_its_rows(pid):
    # the check evaluates stacks; the solver and the objective, single points
    p = build(pid, 24)
    rng = np.random.default_rng(47)
    stack = np.vstack([p.x0, rng.uniform(-2.0, 2.0, size=(4, 24))])
    values = p.block_values(stack)
    assert values.shape == (5, 24 // _TABLE[pid].width)
    for row, x in zip(values, stack):
        assert row.tobytes() == p.block_values(x).tobytes()


@pytest.mark.parametrize("pid", PROBLEM_IDS)
@pytest.mark.parametrize("rows", [1, 3])
def test_gradient_of_a_stack_is_that_of_its_rows(pid, rows):
    # gradient_check takes the gradients of a stack in one call, solve one
    # point at a time
    p = build(pid, 24)
    rng = np.random.default_rng(53)
    stack = np.vstack([p.x0, rng.uniform(-2.0, 2.0, size=(rows - 1, 24))])
    g = p.gradient(stack)
    assert g.shape == (rows, 24)
    for row, x in zip(g, stack):
        assert row.tobytes() == p.gradient(x).tobytes()


def _with_wrong_coordinate(p, k):
    """p with its gradient off by 1% (guarded) in coordinate k alone, of one
    point or of each point of a stack."""
    def gradient(x):
        g = p.gradient(x).copy()
        g[..., k] += 0.01 * (1.0 + abs(g[..., k]))
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
    """fn, appending each argument it gets to calls."""
    def counted(x):
        calls.append(x)
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
    # the three points make one stack: 2 calls per block column, plus one
    # to count the blocks, each on the whole stack
    assert len(calls) == 1 + 2 * _TABLE[pid].width
    assert all(stack.shape == (points, n) for stack in calls)
    calls.clear()
    gradients = []
    gradient_check(dataclasses.replace(p, gradient=_counted(p.gradient, gradients)),
                   num_points=points)
    assert [x.shape for x in gradients] == [(points, n)]
    gradients.clear()
    gradient_check(dataclasses.replace(p, objective=_counted(p.objective, calls),
                                       gradient=_counted(p.gradient, gradients),
                                       block_values=None),
                   num_points=points)
    assert len(calls) == 2 * n * points
    assert all(x.shape == (n,) for x in calls)
    assert [x.shape for x in gradients] == [(n,)] * points
    gradients.clear()
    p = build(pid, 1200)
    gradient_check(dataclasses.replace(p, gradient=_counted(p.gradient, gradients)))
    # ten points in stacks of 3, 3, 3 and 1
    assert [x.shape for x in gradients] == [(3, 1200)] * 3 + [(1, 1200)]


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_gradient_check_evaluations_may_keep_their_points(pid):
    # each evaluation gets its own stack: one kept by the callee still
    # differs from the checked points in one coordinate of every block
    p = build(pid, 24)
    width = _TABLE[pid].width
    checked, kept = [], []
    gradient_check(dataclasses.replace(p, gradient=_counted(p.gradient, checked),
                                       block_values=_counted(p.block_values, kept)),
                   num_points=3)
    assert [x.shape for x in checked] == [(3, 24)]
    assert len(kept) == 1 + 2 * width
    assert np.array_equal(kept[0], checked[0])  # the call that counts the blocks
    for stack in kept[1:]:
        moved = (stack != checked[0]).reshape(3, -1, width).sum(axis=2)
        assert np.all(moved == 1)


@pytest.mark.parametrize("pid", PROBLEM_IDS)
@pytest.mark.parametrize("seed", [0, 7])
def test_gradient_check_matches_the_per_point_check(pid, seed):
    # stacks of 10 points (n = 120), of 3 with a last of 1 (n = 1200) and
    # of 1 (paper size) give the per-point report bit for bit
    for n in (DESK_DIM, 1200, PAPER_DIMS[pid]):
        p = build(pid, n)
        report = gradient_check(p, seed=seed)
        expected = grouped_check_errors(p, 10, seed)
        assert report.coord_errors.tobytes() == expected.tobytes()
        assert report.max_rel_error == expected.max()


@pytest.mark.parametrize("n, points, stacks", [
    (24, 3, [2]),  # one stack: the start point and two moved ones
    (1200, 10, [2, 3, 3, 1]),  # stacks of 3, 3, 3 and 1
    (4800, 10, [1] * 9),  # stacks of 1; the first holds the start point alone
])
def test_gradient_check_projects_a_stack_at_a_time(monkeypatch, n, points, stacks):
    # one draw and one projection for the moved points of each stack
    calls = []

    def counted(cs, v, shifted):
        calls.append((v.shape, shifted))
        return _to_null_space(cs, v, shifted)
    monkeypatch.setattr("eqflow.problems._to_null_space", counted)
    gradient_check(build("ex3", n), num_points=points)
    assert calls == [((rows, n), False) for rows in stacks]


def _shrinking_after_first_call(block_values):
    """block_values with its first call intact and half the blocks after."""
    calls = []

    def values(x):
        calls.append(None)
        v = block_values(x)
        return v if len(calls) == 1 else v[:, :v.shape[1] // 2]
    return values


@pytest.mark.parametrize("make, expected", [
    (lambda bv: lambda x: bv(x[0]), r"\(12,\), expected \(3, n/w\)"),
    (lambda bv: lambda x: bv(x).ravel(), r"\(36,\), expected \(3, n/w\)"),
    (lambda bv: lambda x: bv(x)[:, :5],
     r"\(3, 5\), expected \(3, n/w\) for a block width w that divides n = 24"),
    (lambda bv: lambda x: bv(x)[:, :0], r"\(3, 0\), expected \(3, n/w\)"),
    (_shrinking_after_first_call, r"\(3, 6\), expected \(3, 12\)"),
], ids=["one-point", "flattened", "count-not-dividing-n", "no-blocks",
        "count-changes"])
def test_gradient_check_names_a_block_values_blind_to_stacks(make, expected):
    # a block_values that does not give one row of n/w values per point of
    # the stack is named, not left to fail as a broadcast
    p = build("ex1", 24)
    bad = dataclasses.replace(p, block_values=make(p.block_values))
    with pytest.raises(ValueError, match=r"^ex1: block_values of a \(3, 24\) stack "
                                         r"of points has shape " + expected):
        gradient_check(bad, num_points=3)


def test_gradient_check_names_a_gradient_blind_to_stacks():
    # a block problem whose gradient gives one row for a stack is named by
    # the one vector check, not left to fail as a broadcast
    p = build("ex1", 24)
    bad = dataclasses.replace(p, gradient=lambda x: p.gradient(x[0]))
    with pytest.raises(DimensionMismatchError,
                       match=r"^gradient has shape \(24,\), expected \(3, 24\)$"):
        gradient_check(bad, num_points=3)


@pytest.mark.parametrize("points", [0, -3])
def test_gradient_check_needs_a_point(points):
    # over no point the worst error would read 0.0 and pass a check of nothing
    with pytest.raises(ValueError, match=f"num_points must be positive, got {points}"):
        gradient_check(build("ex1", 12), num_points=points)


def _per_coordinate_errors(problem, num_points, seed):
    """The check one coordinate at a time over the whole objective."""
    base = make_feasible(problem.cs, problem.x0)
    rng = np.random.default_rng(seed)
    n = problem.n
    worst = np.zeros(n)
    for j in range(num_points):
        x = base
        if j > 0:
            x = base + project_gradient(problem.cs, rng.normal(scale=0.25, size=n))
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
    message = rf"x0\[3\] = {bad} is not finite \(1 in all\)"
    with pytest.raises(NonFiniteError, match=message):
        dataclasses.replace(p, x0=x0)
    # the same check guards solve and gradient_check on any other problem
    with pytest.raises(NonFiniteError, match=message):
        make_feasible(p.cs, x0)


def test_problem_keeps_a_checked_read_only_start():
    p = build("ex1", 12)
    x0 = np.arange(12).reshape(3, 4)  # any shape with n entries, as ints
    q = dataclasses.replace(p, x0=x0)
    x0[0, 0] = 99
    assert q.x0.dtype == float and q.x0.tolist() == list(range(12))
    with pytest.raises(ValueError, match="read-only"):
        q.x0[0] = 1.0
    with pytest.raises(TypeError, match="initial point is complex"):
        dataclasses.replace(p, x0=p.x0 + 1j)
    with pytest.raises(DimensionMismatchError,
                       match=r"initial point has shape \(11,\), expected \(12,\)"):
        Problem(name="short", objective=p.objective, gradient=p.gradient,
                cs=p.cs, x0=p.x0[:-1])


# ----------------------------------------------------- the power rule

_POWER_BASES = np.concatenate([
    [-1.26, -1.0, -1e-3, -0.0, 0.0, 1e-3, 1.0, 2.0, 0.5 + 2.0**-40],
    [-1e30, -3.7e20, 1e-30, 2.9e25, 1e30],  # large and small magnitudes
    np.random.default_rng(8).uniform(-4.0, 4.0, 200)])


@pytest.mark.parametrize("e", [1, 2])
def test_power_low_exponents_match_numpy_bit_for_bit(e):
    assert _power(_POWER_BASES, e).tobytes() == (_POWER_BASES ** e).tobytes()


@pytest.mark.parametrize("e", range(3, 9))
def test_power_is_within_e_ulps_of_pow(e):
    # any product of e copies of v carries at most e - 1 roundings
    # (Higham, Accuracy and Stability, section 3.1); pow adds one more
    got = _power(_POWER_BASES, e)
    want = np.array([math.pow(v, e) for v in _POWER_BASES])
    assert np.all(np.abs(got - want) <= e * np.finfo(float).eps * np.abs(want))
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("e", [3, 4, 7])
def test_power_overflow_is_inf_as_with_numpy(e):
    v = np.array([1e200, -1e200, 2.0])
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = _power(v, e)
    with np.errstate(over="ignore"):
        want = v ** e
    assert got.tobytes() == want.tobytes()
    assert np.isinf(got[:2]).all()


class NoPow(np.ndarray):
    """An array whose ``**`` refuses exponents above 2: those send a negative
    base down libm's slow pow path."""

    def __pow__(self, e):
        if np.any(np.asarray(e) > 2):
            raise AssertionError(f"array ** {e}")
        return super().__pow__(e)


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_evaluator_takes_no_power_above_two(pid):
    # every objective, gradient and block value forms its powers by
    # multiplication; the NoPow view must give the plain array's numbers
    x = np.linspace(-1.7, 1.3, 24)
    for call in _EVALUATORS[pid]:
        got, want = call(x.view(NoPow)), call(x)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("terms, want", [
    (((1, (2,)),), lambda x: 2.0 * x),                # ex3: a fresh product
    (((0.5, (2,)),), lambda x: x.copy()),             # the derived column is x
    (((3.0, (1,)),), lambda x: np.full_like(x, 3.0)),  # a constant
])
def test_width_one_gradient_owns_its_array(terms, want):
    _, gradient, _ = _evaluator(_Spec(1, terms, ((1.0,),), (1.0,), (0.0,), 4))
    x = np.linspace(-1.0, 2.0, 4)
    g = gradient(x)
    assert g.tobytes() == want(x).tobytes()
    assert not np.shares_memory(g, x)


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
