"""Solve loop: step/model/ratio arithmetic, statuses, invariants."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import eqflow.solver
from eqflow import (PAPER_DIMS, ConstraintSystem, DimensionMismatchError,
                    SolverConfig, Status, build, gradient_check, make_feasible,
                    project_gradient, solve)
from eqflow.problems import Problem, _block_constraints, _evaluator, _Spec
from eqflow.solver import model_decrease, trial_ratio, trial_step, update_dt


def distance_problem(rng, n=8, m=3, center=None):
    """min ||x - c||^2 s.t. Ax = b; the optimum is the projection of c."""
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    c = center if center is not None else rng.standard_normal(n)
    return Problem(
        name="dist",
        objective=lambda x: float(np.sum((x - c) ** 2)),
        gradient=lambda x: 2.0 * (x - c),
        cs=ConstraintSystem(A=A, b=b),
        x0=rng.standard_normal(n))


# ----------------------------------------------------------- step algebra

def test_trial_step_factor_limits():
    assert abs(trial_step(1e12, np.array([1.0]))[0] - (1.0 - 1e-12)) < 1e-15
    assert_allclose(trial_step(1.0, np.array([2.0, -4.0])), [1.0, -2.0])
    assert_allclose(trial_step(1e-2, np.array([1.0, 0.0])), [1.0 / 101.0, 0.0],
                    rtol=1e-15)


def test_model_decrease_values():
    assert model_decrease(1.0, np.array([1.0, 1.0]), np.array([1.0, -1.0])) == 0.0
    # dt=1, g.s=-2 -> (1.5/2)*2 = 1.5
    assert abs(model_decrease(1.0, np.array([2.0]), np.array([-1.0])) - 1.5) < 1e-15


def test_model_decrease_identity_branch_lower_bound():
    rng = np.random.default_rng(0)
    for dt in (1e-3, 1e-1, 1.0, 10.0, 1e4):
        pg = rng.standard_normal(6)
        s = trial_step(dt, -pg)
        md = model_decrease(dt, pg, s)
        bound = dt / (4.0 * (1.0 + dt)) * float(pg @ pg)
        assert md >= bound - 1e-12


def _no_gradient():
    raise AssertionError("gradient evaluated away from the noise floor")


def test_ratio_values():
    # every case is away from the noise floor or unusable: no gradient call
    pg, s = np.array([1.0]), np.array([-1.0])
    for f_new, md, rho in ((8.0, 2.0, 1.0), (9.0, 2.0, 0.5), (11.0, 2.0, -0.5),
                           (9.0, 0.0, -math.inf), (9.0, -1.0, -math.inf),
                           (9.0, math.nan, -math.inf), (math.nan, 2.0, -math.inf),
                           (math.inf, 2.0, -math.inf)):
        assert trial_ratio(10.0, f_new, md, pg, s, _no_gradient) == (rho, None)


def test_trial_ratio_noise_floor_switch():
    # f = C + |x|^2/2 with a large offset C. For d = -g the model is exact,
    # so the true ratio is 1, but near x = 0 the true decrease (~5e-10) is far
    # below one ulp of f (~1.5e-8) and f_old - f_new rounds away.
    offset = 1e8

    def f(x):
        return offset + 0.5 * float(x @ x)

    x = np.array([1e-5, -2e-5, 3e-5])
    g = x.copy()  # unconstrained: pg = g
    s = trial_step(1.0, -g)
    md = model_decrease(1.0, g, s)
    f_old, f_new = f(x), f(x + s)
    assert (f_old - f_new) / md <= 0.0
    calls = []
    rho, trial = trial_ratio(f_old, f_new, md, g, s,
                             lambda: calls.append(1) or (x + s, x + s))
    assert rho == pytest.approx(1.0, rel=1e-9)
    assert calls == [1]
    assert_allclose(trial[0], x + s)
    assert_allclose(trial[1], x + s)

    # a decrease well above the threshold keeps the plain ratio, bit for bit,
    # and evaluates no gradient
    x = np.array([3.0, -1.0, 2.0])
    g = x.copy()
    s = trial_step(1.0, -g)
    md = model_decrease(1.0, g, s)
    f_old, f_new = f(x), f(x + s)
    assert trial_ratio(f_old, f_new, md, g, s, _no_gradient) == (
        (f_old - f_new) / md, None)
    # an unusable predicted decrease rejects without a gradient call
    assert trial_ratio(f_old, f_old, 0.0, g, s, _no_gradient) == (-math.inf, None)
    # at the noise floor, a trial gradient that is not finite (no projection)
    # rejects the step
    x = np.array([1e-5, -2e-5, 3e-5])
    s = trial_step(1.0, -x)
    md = model_decrease(1.0, x, s)
    nan = np.full(3, np.nan)
    rho, trial = trial_ratio(f(x), f(x + s), md, x, s, lambda: (nan, None))
    assert rho == -math.inf and trial[1] is None


def test_trial_ratio_noise_floor_uses_projected_gradients():
    # f = C + 1e13 * sum(x) + |x|^2/2 on sum(x) = 0: the gradient 1e13 + x is
    # almost all range space, and the projected gradient is x - mean(x). At
    # the noise floor the trapezoid with raw gradients sums 2e13 * s, whose
    # rounding swamps the true decrease; the projected one is exact. The raw
    # trapezoid is summed by math.fsum, so its error does not depend on the
    # order in which np.dot's BLAS kernel adds the products.
    offset, slope = 1e8, 1e13

    def f(x):
        return offset + slope * float(np.sum(x)) + 0.5 * float(x @ x)

    def gradients(x):
        return slope + x, x - np.mean(x)

    x = np.array([1e-5, -2e-5, 3e-5, -2e-5])
    g, pg = gradients(x)
    s = trial_step(1.0, -pg)
    md = model_decrease(1.0, pg, s)
    f_old, f_new = f(x), f(x + s)
    assert abs(f_old - f_new) <= 1e3 * np.finfo(float).eps * abs(f_old)
    g_trial, pg_trial = gradients(x + s)
    unprojected = -0.5 * math.fsum((g + g_trial) * s) / md
    assert abs(unprojected - 1.0) > 1.0
    rho, trial = trial_ratio(f_old, f_new, md, pg, s, lambda: gradients(x + s))
    assert rho == pytest.approx(1.0, rel=1e-9)
    assert_allclose(trial[1], pg_trial)


def test_update_dt_bands():
    dt_min, dt_max = eqflow.solver._DT_MIN, eqflow.solver._DT_MAX
    assert update_dt(0.01, 1.0) == 0.02
    assert update_dt(0.01, 0.5) == 0.01
    assert update_dt(0.01, -0.2) == 0.005
    assert update_dt(0.01, -math.inf) == 0.005
    assert update_dt(dt_min, -math.inf) == dt_min
    assert update_dt(dt_max, 1.0) == dt_max


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps=-1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(dt0=1e-20).validate()  # below the dt floor
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0).validate()
    SolverConfig().validate()


# ------------------------------------------------------------------ solve

def assert_consistent(result, problem):
    """The counts, history and point of a result agree, however it ended."""
    assert result.total_iters == len(result.history)
    assert [rec.k for rec in result.history] == list(range(result.total_iters))
    assert result.steps == sum(rec.accepted for rec in result.history)
    assert result.n_f == result.total_iters + 1
    assert result.lambda_star.shape == (problem.cs.m,)
    f = problem.objective(result.x_star)
    assert result.f_star == f or (math.isnan(result.f_star) and math.isnan(f))


def test_solve_pair_quadratic_closed_form():
    problem = build("ex1", 2)
    result = solve(problem)
    assert_consistent(result, problem)
    assert result.status is Status.CONVERGED
    assert_allclose(result.x_star, [40.0 / 11.0, 4.0 / 11.0], atol=1e-6)
    assert abs(result.f_star - 160.0 / 11.0) < 1e-9 * (160.0 / 11.0)
    assert result.kkt_inf <= 1e-6 and result.feas_inf <= 1e-9


def test_solve_distance_problem_reaches_projection():
    rng = np.random.default_rng(1)
    problem = distance_problem(rng)
    result = solve(problem)
    assert result.status is Status.CONVERGED
    c = problem.gradient(np.zeros(problem.n)) / (-2.0)
    oracle = make_feasible(problem.cs, c)
    assert_allclose(result.x_star, oracle, atol=1e-6)


def test_solve_starts_at_optimum():
    rng = np.random.default_rng(2)
    problem = distance_problem(rng)
    xstar = make_feasible(problem.cs, problem.gradient(np.zeros(8)) / -2.0)
    problem = dataclasses.replace(problem, x0=xstar)
    result = solve(problem)
    assert result.status is Status.CONVERGED
    assert result.steps == 0 and result.total_iters == 0


def test_solve_feasibility_of_every_evaluation():
    rng = np.random.default_rng(3)
    base = distance_problem(rng)
    seen = []
    wrapped = dataclasses.replace(
        base, objective=lambda x: (seen.append(x.copy()), base.objective(x))[1])
    result = solve(wrapped)
    assert result.status is Status.CONVERGED
    A = np.asarray(base.cs.A, float)
    tol = 1e-9 * (1.0 + np.max(np.abs(base.cs.b)))
    assert seen, "objective never evaluated"
    for x in seen:
        assert np.max(np.abs(A @ x - base.cs.b)) <= tol


def test_solve_monotone_objective_and_model_bound():
    result = solve(build("ex6", 12))
    assert result.status is Status.CONVERGED
    hist = result.history
    for prev, cur in zip(hist, hist[1:]):
        assert cur.f <= prev.f + 1e-12 * max(1.0, abs(prev.f))
    for rec in hist:
        bound = rec.dt / (4.0 * (1.0 + rec.dt)) * rec.pg_2 ** 2
        assert rec.model_decrease >= bound - 1e-12
        assert rec.model_decrease > 0.0


def test_solve_constant_offset_does_not_stall():
    # A constant added to f puts the last decreases below its rounding; the
    # ratio test must still see them and reach the offset-free minimizer.
    base = distance_problem(np.random.default_rng(3))
    plain = solve(base)
    shifted = solve(dataclasses.replace(
        base, objective=lambda x: 1e8 + base.objective(x)))
    assert shifted.status is Status.CONVERGED
    assert shifted.kkt_inf <= 1e-6
    assert_allclose(shifted.x_star, plain.x_star, atol=1e-6)
    assert shifted.n_g <= shifted.total_iters + 1


def test_solve_identity_mode_is_projected_descent(monkeypatch):
    # an infinite gate threshold disables the quasi-Newton update entirely
    monkeypatch.setattr("eqflow.direction._THETA", math.inf)
    result = solve(build("ex1", 8))
    assert result.status is Status.CONVERGED
    assert abs(result.f_star - 4 * 160.0 / 11.0) < 1e-6 * 4 * 160.0 / 11.0


def test_solve_deterministic_histories():
    problem = build("ex5", 16)
    r1 = solve(problem)
    r2 = solve(build("ex5", 16))
    r3 = solve(problem)  # again, on the projector problem.cs keeps
    for r in (r2, r3):
        assert r.history == r1.history
        assert np.array_equal(r.x_star, r1.x_star)


def test_one_factorization_serves_a_problem(monkeypatch):
    # the projector is kept on problem.cs, which replace(problem, x0=...)
    # shares, so a check and further solves reuse it
    calls = []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a: calls.append(1) or real_qr(*a))
    problem = build("ex3", 12)  # one group: one QR call per factorization
    assert solve(problem).status is Status.CONVERGED
    gradient_check(problem, 2, 0)
    moved = dataclasses.replace(problem, x0=problem.x0 + 0.5)
    assert solve(moved).status is Status.CONVERGED
    assert len(calls) == 1


def test_solve_iteration_cap():
    problem = build("ex1", 40)
    result = solve(problem, SolverConfig(max_iter=2))
    assert_consistent(result, problem)
    assert result.status is Status.MAX_ITERATIONS
    assert result.total_iters == 2


def test_solve_stalled_time_step(monkeypatch):
    # a deliberately wrong gradient makes every trial increase f, so the
    # time step collapses to its floor and the stall guard fires. The floor
    # is raised from 1e-16: trials that small reach f's rounding, where the
    # trapezoidal decrease, built from the wrong gradient, accepts steps.
    monkeypatch.setattr("eqflow.solver._DT_MIN", 1e-8)
    rng = np.random.default_rng(4)
    base = distance_problem(rng)
    lying = dataclasses.replace(base, gradient=lambda x: -base.gradient(x))
    result = solve(lying, SolverConfig(max_iter=2000))
    assert_consistent(result, lying)
    assert result.status is Status.STALLED_TIME_STEP
    assert result.steps == 0


def test_solve_tight_tolerance_keeps_model_decrease_positive():
    # s lies in null(A), so g.s = pg.s; in floating point g.s cancels (ex9's
    # multipliers are large) and once drove md below zero, ending the solve
    # in numerical_error after 28 iterations
    result = solve(build("ex9", PAPER_DIMS["ex9"]), SolverConfig(eps=1e-7))
    assert result.status is not Status.NUMERICAL_ERROR
    assert all(r.model_decrease > 0.0 for r in result.history)


def test_solve_numerical_error_on_bad_objective():
    rng = np.random.default_rng(5)
    base = distance_problem(rng)
    broken = dataclasses.replace(base, objective=lambda x: float("nan"))
    result = solve(broken)
    assert_consistent(result, broken)
    assert result.status is Status.NUMERICAL_ERROR
    # a non-finite gradient at the start gives no multipliers or residuals
    broken = dataclasses.replace(base, gradient=lambda x: np.full(x.size, np.nan))
    result = solve(broken)
    assert_consistent(result, broken)
    assert result.status is Status.NUMERICAL_ERROR and result.total_iters == 0
    assert np.isnan(result.lambda_star).all()
    assert result.kkt_inf == result.feas_inf == math.inf


def test_solve_gradient_turning_nan_ends_at_last_finite_point():
    # the gradient at the first trial point is NaN: the solve ends with
    # numerical_error at the start point, whose gradient was finite. With
    # ex1's objective the first trial is accepted and its gradient taken
    # then; with a constant one the ratio test takes it at f's noise floor
    # and rejects the trial, and the solve still ends there
    base = build("ex1", 12)
    x0 = make_feasible(base.cs, base.x0)
    for objective, steps in ((base.objective, 1), (lambda x: 7.0, 0)):
        calls = []

        def gradient(x):
            calls.append(1)
            g = base.gradient(x)
            return g if len(calls) < 2 else np.full_like(g, np.nan)

        problem = dataclasses.replace(base, objective=objective, gradient=gradient)
        result = solve(problem)
        assert_consistent(result, problem)
        assert result.status is Status.NUMERICAL_ERROR
        assert result.total_iters == 1 and result.n_g == 2
        assert result.steps == steps
        assert result.x_star.tobytes() == x0.tobytes()
        assert result.f_star == objective(x0)
        assert np.isfinite(result.lambda_star).all()
        assert math.isfinite(result.kkt_inf) and result.feas_inf <= 1e-12


def test_solve_failed_invariants_end_with_numerical_error(monkeypatch):
    problem = build("ex1", 12)
    with monkeypatch.context() as patch:
        # an identity "projection" lets the first accepted step leave Ax = b
        patch.setattr("eqflow.solver.project_gradient",
                      lambda p, g: np.asarray(g, dtype=float))
        result = solve(problem)
    assert_consistent(result, problem)
    assert result.status is Status.NUMERICAL_ERROR
    assert result.steps == result.total_iters == 1
    assert result.feas_inf > 1e-9 * 5.0
    with monkeypatch.context() as patch:
        # an ascent direction breaks the model-decrease bound
        patch.setattr("eqflow.solver.direction", lambda pg, pair: pg)
        result = solve(problem)
    assert_consistent(result, problem)
    assert result.status is Status.NUMERICAL_ERROR
    assert result.total_iters == 1 and result.history[0].model_decrease < 0.0


@pytest.mark.parametrize("flat,scale", [(True, 1e12), (False, 1e9)])
def test_solve_infeasible_start_ends_before_the_first_trial(flat, scale):
    # x0 so large that its projection misses Ax = b by more than rounding:
    # the start is checked like every accepted point, before any trial
    problem = build("ex3", 12)
    problem = dataclasses.replace(problem, x0=scale * (problem.x0 + 1.0))
    if flat:
        problem = dataclasses.replace(problem, objective=lambda x: 0.0,
                                      gradient=np.zeros_like)
    result = solve(problem)
    assert_consistent(result, problem)
    assert result.status is Status.NUMERICAL_ERROR
    assert result.total_iters == 0 and result.n_f == result.n_g == 1
    assert result.feas_inf > 1e-9 * (1.0 + float(np.max(np.abs(problem.cs.b))))


def test_invariant_checks_survive_python_O():
    # the checks are plain ifs, not asserts, so python -O keeps them
    code = ("import eqflow, eqflow.solver\n"
            "eqflow.solver.direction = lambda pg, pair: pg\n"
            "r = eqflow.solve(eqflow.build('ex1', 12))\n"
            "print(__debug__, r.status.value, r.total_iters)\n")
    src = Path(eqflow.solver.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src),
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "numerical_error", "1"]


@pytest.mark.parametrize("run, short", [
    (solve, r"\(11,\), expected \(12,\)"),
    # gradient_check takes the gradients of its ten points as one stack,
    # so the short result lacks a row
    (gradient_check, r"\(9, 12\), expected \(10, 12\)"),
], ids=["solve", "gradient_check"])
@pytest.mark.parametrize("bad, error, message", [
    (lambda g: g + 1j, TypeError, "gradient is complex"),
    (lambda g: g[:-1], DimensionMismatchError, r"gradient has shape {short}"),
], ids=["complex", "short"])
def test_callback_gradient_is_checked_once(run, short, bad, error, message):
    # a float conversion would drop a complex gradient's imaginary part with
    # only a warning; both callers raise the one vector check's errors
    base = build("ex1", 12)
    problem = dataclasses.replace(base, gradient=lambda x: bad(base.gradient(x)))
    with pytest.raises(error, match=message.format(short=short)):
        run(problem)


def test_solve_overflowing_trial_is_rejected_not_fatal():
    # the objective "overflows" outside a ball around the start; with a big
    # initial dt the first trial lands there, must be rejected via rho=-inf,
    # and the solver recovers by shrinking dt
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 8))
    b = rng.standard_normal(3)
    cs = ConstraintSystem(A=A, b=b)
    x_start = make_feasible(cs, rng.standard_normal(8))
    delta = project_gradient(cs, rng.standard_normal(8))
    delta *= 0.1 / np.linalg.norm(delta)
    c = x_start + delta
    radius = 1.5 * np.linalg.norm(delta)

    def guarded(x):
        if np.linalg.norm(x - x_start) >= radius:
            return float("inf")
        return float(np.sum((x - c) ** 2))

    problem = Problem(name="guarded", objective=guarded,
                      gradient=lambda x: 2.0 * (x - c), cs=cs, x0=x_start)
    result = solve(problem, SolverConfig(dt0=1e2))
    assert result.status is Status.CONVERGED
    assert any(r.rho == -math.inf for r in result.history)
    assert_allclose(result.x_star, c, atol=1e-6)


def test_solve_callback_sees_every_iteration():
    records = []
    result = solve(build("ex4", 12), callback=records.append)
    assert len(records) == result.total_iters
    assert [r.k for r in records] == list(range(result.total_iters))


def test_solve_kkt_matches_projected_gradient():
    result = solve(build("ex7", 12))
    problem = build("ex7", 12)
    g = problem.gradient(result.x_star)
    pg_inf = float(np.max(np.abs(project_gradient(problem.cs, g))))
    assert abs(result.kkt_inf - pg_inf) <= 1e-9 * max(1.0, float(np.max(np.abs(g))))


def test_solve_rejected_iterations_not_counted_as_steps():
    result = solve(build("ex8", 12))
    rejected = sum(1 for r in result.history if not r.accepted)
    assert result.steps + rejected == result.total_iters
    assert result.n_f == result.total_iters + 1


def test_solve_direction_once_per_accepted_point(monkeypatch):
    # a rejected trial keeps pg and the pair, so its direction is reused
    calls = []
    real = eqflow.solver.direction
    monkeypatch.setattr("eqflow.solver.direction",
                        lambda *args: calls.append(1) or real(*args))
    result = solve(build("ex8", 12))
    assert result.status is Status.CONVERGED
    assert result.steps < result.total_iters
    assert len(calls) == result.steps


def test_solve_projects_each_gradient_once(monkeypatch):
    # a gradient taken for the trapezoid is projected there, and an accepted
    # step reuses that projection instead of projecting g_trial again
    base = distance_problem(np.random.default_rng(3))
    problem = dataclasses.replace(base, objective=lambda x: 1e8 + base.objective(x))
    projections, trapezoids = [], []
    real_project, real_ratio = eqflow.solver.project_gradient, eqflow.solver.trial_ratio

    def ratio(*args):
        rho, trial = real_ratio(*args)
        if trial is not None and rho > eqflow.solver._ETA_A:
            trapezoids.append(1)
        return rho, trial

    monkeypatch.setattr("eqflow.solver.project_gradient",
                        lambda *args: projections.append(1) or real_project(*args))
    monkeypatch.setattr("eqflow.solver.trial_ratio", ratio)
    result = solve(problem)
    assert result.status is Status.CONVERGED
    assert trapezoids  # an accepted step came through the noise floor
    assert len(projections) == result.n_g


# ------------------------------------------------ global convergence, property

@st.composite
def bounded_block_problems(draw):
    """A random block problem that is bounded below on its constraint set,
    and its block of constraint rows.

    Every variable of a block gets an even pure power with a positive
    coefficient, and every other term (linear ones included) has a degree
    below the smallest pure power among its variables, so the pure powers
    dominate far out. Each block has 1 to w - 1 full-rank constraint rows.
    """
    w = draw(st.integers(2, 4))
    pure = [draw(st.sampled_from((2, 4, 6))) for _ in range(w)]
    terms = [(draw(st.floats(0.5, 3.0)), tuple(e if j == i else 0 for j in range(w)))
             for i, e in enumerate(pure)]
    for _ in range(draw(st.integers(0, 4))):
        owners = draw(st.lists(st.integers(0, w - 1), min_size=1, max_size=w,
                               unique=True))
        top = min(pure[k] for k in owners) - 1
        if len(owners) > top:  # no degree fits
            continue
        exponents = [0] * w
        for k in owners:
            exponents[k] = 1
        for _ in range(draw(st.integers(len(owners), top)) - len(owners)):
            exponents[draw(st.sampled_from(owners))] += 1
        terms.append((draw(st.floats(-3.0, 3.0)), tuple(exponents)))
    r = draw(st.integers(1, w - 1))
    rows = tuple(tuple(draw(st.lists(st.integers(-3, 3), min_size=w, max_size=w)))
                 for _ in range(r))
    assume(np.linalg.matrix_rank(np.array(rows, dtype=float)) == r)
    rhs = tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=r, max_size=r)))
    n = w * draw(st.integers(1, 59))
    objective, gradient, block_values = _evaluator(
        _Spec(w, tuple(terms), rows, rhs, (0.0,), n))
    A, b = _block_constraints(n, rows, rhs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problem = Problem(name="random", objective=objective, gradient=gradient,
                      cs=ConstraintSystem(A=A, b=b), x0=rng.uniform(-2.0, 2.0, n),
                      block_values=block_values)
    return problem, np.array(rows, dtype=float)


def least_reduced_curvature(problem, rows, x):
    """The smallest eigenvalue, over the blocks, of Z^T H Z at x: H is the
    block's Hessian by central differences of the gradient, Z an orthonormal
    basis of the null space of the block's constraint rows."""
    r, w = rows.shape
    z = np.linalg.svd(rows)[2][r:].T
    columns = []
    for i in range(w):
        e = np.zeros_like(x)
        e[i::w] = 1e-5
        columns.append((problem.gradient(x + e) - problem.gradient(x - e)) / 2e-5)
    hessians = np.stack([c.reshape(-1, w) for c in columns], axis=2)
    return np.linalg.eigvalsh(z.T @ hessians @ z).min()


@settings(derandomize=True, database=None, deadline=None)
@given(bounded_block_problems())
def test_solve_converges_on_bounded_block_problems(case):
    problem, rows = case
    result = solve(problem)
    if least_reduced_curvature(problem, rows, result.x_star) > 1e-3:
        assert result.status is Status.CONVERGED
    else:
        # A degenerate minimizer (such as x^6 + y^6 at 0): rho stays in the
        # dead band of the time-step rule, so dt never grows and ||pg|| only
        # crawls towards eps (CHANGES.md FOUND).
        assert result.status in (Status.CONVERGED, Status.MAX_ITERATIONS)
        assert result.kkt_inf <= 10.0 * SolverConfig.eps  # ||Pg|| at x*
    # f at successive accepted points falls, up to the ratio test's noise floor
    fs = [rec.f for rec in result.history] + [result.f_star]
    eps = np.finfo(float).eps
    for f_prev, f_next in zip(fs, fs[1:]):
        assert f_next - f_prev <= 1e3 * eps * max(abs(f_prev), abs(f_next))
    assert result.feas_inf <= 1e-9 * (1.0 + np.max(np.abs(problem.cs.b)))
    for rec in result.history:  # criterion 7
        bound = rec.dt / (4.0 * (1.0 + rec.dt)) * rec.pg_2 ** 2
        assert rec.model_decrease >= bound - 1e-12


@settings(derandomize=True, database=None, deadline=None)
@given(bounded_block_problems(), st.integers(1, 5))
def test_block_values_of_a_stack_are_those_of_its_rows(case, rows):
    # gradient_check evaluates stacks of points, solve single points
    problem, _ = case
    rng = np.random.default_rng(rows)
    stack = np.vstack([problem.x0, rng.uniform(-2.0, 2.0, size=(rows, problem.n))])
    values = problem.block_values(stack)
    assert values.shape == (rows + 1, len(problem.block_values(problem.x0)))
    for row, x in zip(values, stack):
        assert row.tobytes() == problem.block_values(x).tobytes()


@settings(derandomize=True, database=None, deadline=None)
@given(bounded_block_problems(), st.integers(1, 5))
def test_gradient_of_a_stack_is_that_of_its_rows(case, rows):
    # gradient_check takes the gradients of a stack in one call, solve one
    # point at a time
    problem, _ = case
    rng = np.random.default_rng(rows)
    stack = np.vstack([problem.x0, rng.uniform(-2.0, 2.0, size=(rows, problem.n))])
    g = problem.gradient(stack)
    assert g.shape == stack.shape
    for row, x in zip(g, stack):
        assert row.tobytes() == problem.gradient(x).tobytes()
