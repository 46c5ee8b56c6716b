"""Continuation solver with trust-region control of the time step.

The iteration follows the projected gradient flow of the objective on the
affine set {x : Ax = b}.  Each trial step is ``(dt/(1+dt)) * d`` with
``d = -H @ pg`` from the single-pair quasi-Newton model; the time step dt
is enlarged or shrunk by a trust-region ratio test instead of a line
search.  Small dt gives damped projected gradient descent, large dt a full
quasi-Newton step.  Every trial step lies in the null space of A, so all
iterates stay feasible to rounding.

Near a minimizer the decrease ``f_old - f_new`` can drop to the rounding
error of f.  There the ratio test measures the actual decrease by the
trapezoidal estimate ``-(g + g_trial).s / 2`` instead (see
``trial_ratio``), so there an accepted step descends only up to rounding
of f: its f may exceed the previous one by at most 1e3 * eps_mach * |f|.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional

import numpy as np

from .direction import CurvaturePair, direction
from .projection import factor, make_feasible, multipliers, project_gradient, residuals

# Trust-region constants of the time step. A trial is accepted when its
# ratio rho exceeds _ETA_A. dt grows by _GAMMA1 when |1 - rho| <= _ETA1,
# shrinks by _GAMMA2 when |1 - rho| >= _ETA2, and stays in [_DT_MIN, _DT_MAX].
_ETA_A = 1e-6
_ETA1 = 0.25
_ETA2 = 0.75
_GAMMA1 = 2.0
_GAMMA2 = 0.5
_DT_MIN = 1e-16
_DT_MAX = 1e16

# The quasi-Newton pair is used only when |s.y| > _THETA * ||s||^2.
_THETA = 1e-6

# Consecutive rejections at the dt floor before the solver gives up.
_STALL_LIMIT = 50

# |f_old - f_new| <= _NOISE_FLOOR * eps_mach * max(|f_old|, |f_new|) is taken
# as rounding noise, and the ratio test switches to the trapezoidal decrease.
_NOISE_FLOOR = 1e3
_EPS = float(np.finfo(float).eps)


class Status(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    STALLED_TIME_STEP = "stalled_time_step"
    NUMERICAL_ERROR = "numerical_error"


@dataclass
class SolverConfig:
    """What a caller chooses for a solve; the rest of the recipe is fixed.

    eps terminates on ``||pg||_inf <= eps``, dt0 seeds the time step and
    max_iter caps the loop iterations, rejected trials included. The
    trust-region thresholds, the dt bounds and the curvature gate are
    module constants.
    """

    eps: float = 1e-6
    dt0: float = 1e-2
    max_iter: int = 10000

    def validate(self) -> None:
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not _DT_MIN <= self.dt0 <= _DT_MAX:
            raise ValueError(
                f"need {_DT_MIN:g} <= dt0 <= {_DT_MAX:g}, got {self.dt0}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    """One loop iteration: trial ratio, time step and model decrease."""

    k: int
    f: float
    pg_norm_inf: float
    pg_norm_2: float
    dt: float
    rho: float
    accepted: bool
    model_decrease: float


@dataclass
class SolveResult:
    status: Status
    x_star: np.ndarray
    f_star: float
    lambda_star: np.ndarray
    kkt_inf: float
    feas_inf: float
    steps: int            # accepted iterations
    total_iters: int      # loop iterations including rejected trials
    n_f: int
    n_g: int
    history: List[IterationRecord] = field(default_factory=list)


def trial_step(dt: float, d) -> np.ndarray:
    """Scale the direction by dt/(1+dt); the factor lies in (0, 1)."""
    return (dt / (1.0 + dt)) * np.asarray(d, dtype=float)


def model_decrease(dt: float, g, s) -> float:
    """Predicted decrease -(1 + 0.5 dt)/(1 + dt) * g.s of the local model."""
    return -(1.0 + 0.5 * dt) / (1.0 + dt) * float(np.dot(g, s))


def trial_ratio(f_old: float, f_new: float, md: float, g, s,
                gradient_at_trial: Callable[[], np.ndarray]):
    """Actual-over-predicted decrease of a trial step, kept at f's noise floor.

    Returns ``(rho, g_trial)``. A non-positive or non-finite predicted
    decrease ``md``, or a non-finite trial value ``f_new``, gives
    ``(-inf, None)``, which rejects the step. Otherwise rho is
    ``(f_old - f_new) / md`` with ``g_trial`` None, unless ``|f_old - f_new|
    <= _NOISE_FLOOR * eps_mach * max(|f_old|, |f_new|)`` (``_NOISE_FLOOR`` =
    1e3): there the difference of the two values is mostly rounding and
    says nothing of the step. The actual decrease is then the trapezoidal
    estimate ``-(g + g_trial).s / 2``, exact for quadratics, for which
    ``gradient_at_trial()`` is called once; ``g_trial`` is returned so an
    accepted step reuses it. A non-finite estimate rejects the step. This
    is the switch of Hager & Zhang's approximate Wolfe conditions (SIAM J.
    Optim. 16(1), 2005).
    """
    if not math.isfinite(md) or md <= 0.0 or not math.isfinite(f_new):
        return -math.inf, None
    if abs(f_old - f_new) > _NOISE_FLOOR * _EPS * max(abs(f_old), abs(f_new)):
        return (f_old - f_new) / md, None
    g_trial = np.asarray(gradient_at_trial(), dtype=float)
    decrease = -0.5 * float(np.dot(g + g_trial, s))
    return (decrease / md if math.isfinite(decrease) else -math.inf), g_trial


def update_dt(dt: float, rho: float) -> float:
    """Trust-region adjustment of the time step, clamped to [_DT_MIN, _DT_MAX]."""
    dev = abs(1.0 - rho)
    if dev <= _ETA1:
        dt = _GAMMA1 * dt
    elif dev >= _ETA2:
        dt = _GAMMA2 * dt
    return min(max(dt, _DT_MIN), _DT_MAX)


def _finite(value) -> bool:
    return bool(np.all(np.isfinite(value)))


def solve(problem, config: Optional[SolverConfig] = None,
          callback: Optional[Callable[[IterationRecord], None]] = None) -> SolveResult:
    """Minimize ``problem.objective`` subject to ``problem.cs`` (Ax = b).

    Parameters
    ----------
    problem
        Anything with ``objective(x) -> float``, ``gradient(x) -> array``,
        a ``cs`` ConstraintSystem and an initial point ``x0``. The initial
        point may be infeasible; it is projected onto the constraint set
        before the first evaluation. A NaN or infinite entry of ``x0``
        raises :class:`NonFiniteError` naming it.
    config : SolverConfig, optional
        Tolerance, initial time step and iteration cap; validated defaults
        are used when omitted.
    callback : callable, optional
        Invoked once per loop iteration with the IterationRecord.

    Returns
    -------
    SolveResult
        Final iterate, objective, multipliers, residuals, counters and the
        per-iteration history. ``status`` is CONVERGED exactly when
        ``||pg||_inf <= config.eps`` was reached.
    """
    cfg = config if config is not None else SolverConfig()
    cfg.validate()

    proj = factor(problem.cs)
    b = np.asarray(problem.cs.b, dtype=float)
    feas_tol = 1e-9 * (1.0 + float(np.max(np.abs(b))))

    x = make_feasible(proj, problem.x0)
    f = float(problem.objective(x))
    g = np.asarray(problem.gradient(x), dtype=float)
    n_f, n_g = 1, 1

    history: List[IterationRecord] = []

    def finish(status, xv, fv, gv):
        lam = multipliers(proj, gv) if _finite(gv) else np.full(proj.m, np.nan)
        if _finite(gv) and _finite(xv):
            kkt, feas = residuals(proj, problem.cs, xv, gv, lam)
        else:
            kkt, feas = math.inf, math.inf
        accepted = sum(1 for r in history if r.accepted)
        return SolveResult(status=status, x_star=xv, f_star=fv, lambda_star=lam,
                           kkt_inf=kkt, feas_inf=feas, steps=accepted,
                           total_iters=len(history), n_f=n_f, n_g=n_g,
                           history=history)

    if not math.isfinite(f) or not _finite(g):
        return finish(Status.NUMERICAL_ERROR, x, f, g)

    pg = project_gradient(proj, g)
    pair: Optional[CurvaturePair] = None
    dt = cfg.dt0
    k = 0
    stalled = 0

    while True:
        # Once per accepted point: a rejected trial leaves x, g and pg as
        # they are, so the test, the norms and d carry over to the next trial.
        pg_inf = float(np.max(np.abs(pg)))
        if pg_inf <= cfg.eps:
            return finish(Status.CONVERGED, x, f, g)
        pg_2 = float(np.linalg.norm(pg))
        d = direction(pg, pair, _THETA)

        while True:
            if k >= cfg.max_iter:
                return finish(Status.MAX_ITERATIONS, x, f, g)
            s = trial_step(dt, d)
            x_trial = x + s
            f_trial = float(problem.objective(x_trial))
            n_f += 1

            # s lies in null(A), so pg.s = g.s; g's range-space part only
            # adds rounding, which can cancel md below zero.
            md = model_decrease(dt, pg, s)
            rho, g_trial = trial_ratio(f, f_trial, md, g, s,
                                       lambda: problem.gradient(x_trial))
            if g_trial is not None:
                n_g += 1
            accepted = rho > _ETA_A

            record = IterationRecord(k=k, f=f, pg_norm_inf=pg_inf,
                                     pg_norm_2=pg_2, dt=dt, rho=rho,
                                     accepted=accepted, model_decrease=md)
            history.append(record)
            if callback is not None:
                callback(record)
            # H has eigenvalues > 1/2, so the model decrease is bounded below
            # by dt/(4(1+dt)) * ||pg||^2 up to rounding.
            if not md >= dt / (4.0 * (1.0 + dt)) * pg_2 ** 2 - 1e-12:
                return finish(Status.NUMERICAL_ERROR, x, f, g)

            stalled = stalled + 1 if not accepted and dt <= _DT_MIN else 0
            if stalled >= _STALL_LIMIT:
                return finish(Status.STALLED_TIME_STEP, x, f, g)
            dt = update_dt(dt, rho)
            k += 1
            if accepted:
                break

        if g_trial is None:
            g_trial = np.asarray(problem.gradient(x_trial), dtype=float)
            n_g += 1
        if not _finite(g_trial):
            return finish(Status.NUMERICAL_ERROR, x, f, g)
        pg_trial = project_gradient(proj, g_trial)
        pair = CurvaturePair.from_step(s, pg_trial - pg)
        x, f, g, pg = x_trial, f_trial, g_trial, pg_trial
        if not float(np.max(np.abs(problem.cs.A @ x - b))) <= feas_tol:
            return finish(Status.NUMERICAL_ERROR, x, f, g)
