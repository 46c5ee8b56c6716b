"""Solve loop: step/model/ratio arithmetic, statuses, invariants."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eqflow.solver
from eqflow import (PAPER_DIMS, ConstraintSystem, SolverConfig, Status, build,
                    factor, make_feasible, project_gradient, solve)
from eqflow.problems import Problem
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
    g, s = np.array([1.0]), np.array([-1.0])
    for f_new, md, rho in ((8.0, 2.0, 1.0), (9.0, 2.0, 0.5), (11.0, 2.0, -0.5),
                           (9.0, 0.0, -math.inf), (9.0, -1.0, -math.inf),
                           (9.0, math.nan, -math.inf), (math.nan, 2.0, -math.inf),
                           (math.inf, 2.0, -math.inf)):
        assert trial_ratio(10.0, f_new, md, g, s, _no_gradient) == (rho, None)


def test_trial_ratio_noise_floor_switch():
    # f = C + |x|^2/2 with a large offset C. For d = -g the model is exact,
    # so the true ratio is 1, but near x = 0 the true decrease (~5e-10) is far
    # below one ulp of f (~1.5e-8) and f_old - f_new rounds away.
    offset = 1e8

    def f(x):
        return offset + 0.5 * float(x @ x)

    x = np.array([1e-5, -2e-5, 3e-5])
    g = x.copy()
    s = trial_step(1.0, -g)
    md = model_decrease(1.0, g, s)
    f_old, f_new = f(x), f(x + s)
    assert (f_old - f_new) / md <= 0.0
    calls = []
    rho, g_trial = trial_ratio(f_old, f_new, md, g, s,
                               lambda: calls.append(1) or x + s)
    assert rho == pytest.approx(1.0, rel=1e-9)
    assert calls == [1]
    assert_allclose(g_trial, x + s)

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

def test_solve_pair_quadratic_closed_form():
    result = solve(build("ex1", 2))
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
    oracle = make_feasible(factor(problem.cs), c)
    assert_allclose(result.x_star, oracle, atol=1e-6)


def test_solve_starts_at_optimum():
    rng = np.random.default_rng(2)
    problem = distance_problem(rng)
    xstar = make_feasible(factor(problem.cs), problem.gradient(np.zeros(8)) / -2.0)
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
        bound = rec.dt / (4.0 * (1.0 + rec.dt)) * rec.pg_norm_2 ** 2
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
    monkeypatch.setattr("eqflow.solver._THETA", math.inf)
    result = solve(build("ex1", 8))
    assert result.status is Status.CONVERGED
    assert abs(result.f_star - 4 * 160.0 / 11.0) < 1e-6 * 4 * 160.0 / 11.0


def test_solve_deterministic_histories():
    r1 = solve(build("ex5", 16))
    r2 = solve(build("ex5", 16))
    assert r1.history == r2.history
    assert np.array_equal(r1.x_star, r2.x_star)


def test_solve_iteration_cap():
    result = solve(build("ex1", 40), SolverConfig(max_iter=2))
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
    assert result.status is Status.NUMERICAL_ERROR


def test_solve_failed_invariants_end_with_numerical_error(monkeypatch):
    problem = build("ex1", 12)
    with monkeypatch.context() as patch:
        # an identity "projection" lets the first accepted step leave Ax = b
        patch.setattr("eqflow.solver.project_gradient",
                      lambda p, g: np.asarray(g, dtype=float))
        result = solve(problem)
    assert result.status is Status.NUMERICAL_ERROR
    assert result.steps == result.total_iters == 1
    assert result.feas_inf > 1e-9 * 5.0
    with monkeypatch.context() as patch:
        # an ascent direction breaks the model-decrease bound
        patch.setattr("eqflow.solver.direction", lambda pg, pair, theta: pg)
        result = solve(problem)
    assert result.status is Status.NUMERICAL_ERROR
    assert result.total_iters == 1 and result.history[0].model_decrease < 0.0


def test_solve_overflowing_trial_is_rejected_not_fatal():
    # the objective "overflows" outside a ball around the start; with a big
    # initial dt the first trial lands there, must be rejected via rho=-inf,
    # and the solver recovers by shrinking dt
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 8))
    b = rng.standard_normal(3)
    cs = ConstraintSystem(A=A, b=b)
    proj = factor(cs)
    x_start = make_feasible(proj, rng.standard_normal(8))
    delta = project_gradient(proj, rng.standard_normal(8))
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
    proj = factor(problem.cs)
    g = problem.gradient(result.x_star)
    pg_inf = float(np.max(np.abs(project_gradient(proj, g))))
    assert abs(result.kkt_inf - pg_inf) <= 1e-9 * max(1.0, float(np.max(np.abs(g))))


def test_solve_rejected_iterations_not_counted_as_steps():
    result = solve(build("ex8", 12))
    rejected = sum(1 for r in result.history if not r.accepted)
    assert result.steps + rejected == result.total_iters


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
