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

# Consecutive rejections at the dt floor before the solver gives up.
_STALL_LIMIT = 50

# |f_old - f_new| <= _NOISE_FLOOR * eps_mach * max(|f_old|, |f_new|) is taken
# as rounding noise, and the ratio test switches to the trapezoidal decrease.
_NOISE_FLOOR = 1e3
_EPS = float(np.finfo(float).eps)


class Status(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    MAX_EVALUATIONS = "max_evaluations"
    STALLED_TIME_STEP = "stalled_time_step"
    NUMERICAL_ERROR = "numerical_error"


@dataclass
class SolverConfig:
    """Tunable constants of the solve loop.

    The defaults are the standard settings: eps terminates on
    ``||pg||_inf``, dt0 seeds the time step, eta_a is the acceptance
    threshold on the ratio test, (eta1, eta2, gamma1, gamma2) drive the
    time-step adjustment, and theta gates the quasi-Newton update.
    """

    eps: float = 1e-6
    dt0: float = 1e-2
    eta_a: float = 1e-6
    eta1: float = 0.25
    gamma1: float = 2.0
    eta2: float = 0.75
    gamma2: float = 0.5
    theta: float = 1e-6
    max_iter: int = 10000
    max_fun_evals: int = 50000
    dt_min: float = 1e-16
    dt_max: float = 1e16

    def validate(self) -> None:
        if not (0.0 < self.eta_a < self.eta1 < self.eta2 < 1.0):
            raise ValueError(
                f"need 0 < eta_a < eta1 < eta2 < 1, got "
                f"{self.eta_a}, {self.eta1}, {self.eta2}"
            )
        if not self.gamma1 > 1.0:
            raise ValueError(f"gamma1 must exceed 1, got {self.gamma1}")
        if not 0.0 < self.gamma2 < 1.0:
            raise ValueError(f"gamma2 must lie in (0, 1), got {self.gamma2}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.theta > 0.0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not (0.0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise ValueError(
                f"need 0 < dt_min <= dt0 <= dt_max, got "
                f"{self.dt_min}, {self.dt0}, {self.dt_max}"
            )
        if self.max_iter < 1 or self.max_fun_evals < 1:
            raise ValueError("iteration and evaluation caps must be positive")


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


def ratio(f_old: float, f_new: float, md: float) -> float:
    """Actual-over-predicted decrease; -inf whenever the test is unusable.

    A non-positive or non-finite predicted decrease, or a non-finite trial
    value, forces the rejection branch.
    """
    if not math.isfinite(md) or md <= 0.0 or not math.isfinite(f_new):
        return -math.inf
    return (f_old - f_new) / md


def trial_ratio(f_old: float, f_new: float, md: float, g, s,
                gradient_at_trial: Callable[[], np.ndarray]):
    """Ratio test of a trial step that keeps its signal at f's noise floor.

    Returns ``(rho, g_trial)``. Away from the noise floor this is
    ``(ratio(f_old, f_new, md), None)``. When ``|f_old - f_new| <=
    _NOISE_FLOOR * eps_mach * max(|f_old|, |f_new|)`` (``_NOISE_FLOOR`` =
    1e3), the difference of the two values is mostly rounding and says
    nothing of the step. The actual decrease is then the trapezoidal
    estimate ``-(g + g_trial).s / 2``, exact for quadratics, for which
    ``gradient_at_trial()`` is called once; ``g_trial`` is returned so an
    accepted step reuses it. A non-finite estimate rejects the step. This
    is the switch of Hager & Zhang's approximate Wolfe conditions (SIAM J.
    Optim. 16(1), 2005).
    """
    if (math.isfinite(md) and md > 0.0 and math.isfinite(f_new)
            and abs(f_old - f_new)
            <= _NOISE_FLOOR * _EPS * max(abs(f_old), abs(f_new))):
        g_trial = np.asarray(gradient_at_trial(), dtype=float)
        decrease = -0.5 * float(np.dot(g + g_trial, s))
        return (decrease / md if math.isfinite(decrease) else -math.inf), g_trial
    return ratio(f_old, f_new, md), None


def update_dt(dt: float, rho: float, cfg: SolverConfig) -> float:
    """Trust-region adjustment of the time step, clamped to [dt_min, dt_max]."""
    dev = abs(1.0 - rho)
    if dev <= cfg.eta1:
        dt = cfg.gamma1 * dt
    elif dev >= cfg.eta2:
        dt = cfg.gamma2 * dt
    return min(max(dt, cfg.dt_min), cfg.dt_max)


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
        before the first evaluation.
    config : SolverConfig, optional
        Loop constants; validated defaults are used when omitted.
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
        pg_inf = float(np.max(np.abs(pg)))
        if pg_inf <= cfg.eps:
            return finish(Status.CONVERGED, x, f, g)
        if k >= cfg.max_iter:
            return finish(Status.MAX_ITERATIONS, x, f, g)
        if n_f >= cfg.max_fun_evals:
            return finish(Status.MAX_EVALUATIONS, x, f, g)

        d = direction(pg, pair, cfg.theta)
        s = trial_step(dt, d)
        x_trial = x + s
        f_trial = float(problem.objective(x_trial))
        n_f += 1

        md = model_decrease(dt, g, s)
        rho, g_trial = trial_ratio(f, f_trial, md, g, s,
                                   lambda: problem.gradient(x_trial))
        if g_trial is not None:
            n_g += 1
        accepted = rho > cfg.eta_a

        pg_2 = float(np.linalg.norm(pg))
        record = IterationRecord(k=k, f=f, pg_norm_inf=pg_inf, pg_norm_2=pg_2,
                                 dt=dt, rho=rho, accepted=accepted,
                                 model_decrease=md)
        history.append(record)
        if callback is not None:
            callback(record)
        # H has eigenvalues > 1/2, so the model decrease is bounded below
        # by dt/(4(1+dt)) * ||pg||^2 up to rounding.
        if not md >= dt / (4.0 * (1.0 + dt)) * pg_2 ** 2 - 1e-12:
            return finish(Status.NUMERICAL_ERROR, x, f, g)

        if accepted:
            if g_trial is None:
                g_trial = np.asarray(problem.gradient(x_trial), dtype=float)
                n_g += 1
            if not _finite(g_trial):
                return finish(Status.NUMERICAL_ERROR, x, f, g)
            pg_trial = project_gradient(proj, g_trial)
            pair = CurvaturePair.from_step(s, pg_trial - pg)
            x, f, g, pg = x_trial, f_trial, g_trial, pg_trial
            stalled = 0
            if not float(np.max(np.abs(problem.cs.A @ x - b))) <= feas_tol:
                return finish(Status.NUMERICAL_ERROR, x, f, g)
        else:
            stalled = stalled + 1 if dt <= cfg.dt_min else 0
            if stalled >= _STALL_LIMIT:
                return finish(Status.STALLED_TIME_STEP, x, f, g)

        dt = update_dt(dt, rho, cfg)
        k += 1
