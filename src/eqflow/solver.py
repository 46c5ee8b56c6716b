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
trapezoidal estimate ``-(pg + P g_trial).s / 2`` instead (see
``trial_ratio``), so there an accepted step descends only up to rounding
of f: its f may exceed the previous one by at most 1e3 * eps_mach * |f|.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .direction import CurvaturePair, direction
from .projection import (_vector, make_feasible, multipliers, project_gradient,
                         residuals)

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
    trust-region thresholds and the dt bounds are constants of this
    module, the curvature gate one of :mod:`eqflow.direction`.
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


class IterationRecord(NamedTuple):
    """One loop iteration, and one row of ``solve --history`` in field order."""

    k: int
    f: float
    pg_inf: float
    pg_2: float
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
    n_f: int              # one objective call at the start and one per trial
    n_g: int
    history: List[IterationRecord] = field(default_factory=list)


def trial_step(dt: float, d) -> np.ndarray:
    """Scale the float direction d by dt/(1+dt); the factor lies in (0, 1)."""
    return (dt / (1.0 + dt)) * d


def model_decrease(dt: float, g, s) -> float:
    """Predicted decrease -(1 + 0.5 dt)/(1 + dt) * g.s of the local model."""
    return -(1.0 + 0.5 * dt) / (1.0 + dt) * float(np.dot(g, s))


def trial_ratio(f_old: float, f_new: float, md: float, pg, s,
                gradients_at_trial: Callable[[], Tuple[np.ndarray, np.ndarray]]):
    """Actual-over-predicted decrease of a trial step, kept at f's noise floor.

    Returns ``(rho, trial)``. A non-positive or non-finite predicted
    decrease ``md``, or a non-finite trial value ``f_new``, gives
    ``(-inf, None)``, which rejects the step. Otherwise rho is
    ``(f_old - f_new) / md`` with ``trial`` None, unless ``|f_old - f_new|
    <= _NOISE_FLOOR * eps_mach * max(|f_old|, |f_new|)`` (``_NOISE_FLOOR`` =
    1e3): there the difference of the two values is mostly rounding and
    says nothing of the step. The actual decrease is then the trapezoidal
    estimate ``-(pg + pg_trial).s / 2``, exact for quadratics, for which
    ``gradients_at_trial()`` is called once and gives ``trial = (g_trial,
    pg_trial)``, the gradient at the trial point and its projection; the
    pair is returned so an accepted step reuses it. ``pg`` is the projected
    gradient at the current point: s lies in null(A), so the range-space
    parts of the gradients add nothing to the estimate but rounding. A
    ``pg_trial`` of None (g_trial is not finite) or a non-finite estimate
    rejects the step. This is the switch of Hager &
    Zhang's approximate Wolfe conditions (SIAM J. Optim. 16(1), 2005).
    """
    if not math.isfinite(md) or md <= 0.0 or not math.isfinite(f_new):
        return -math.inf, None
    if abs(f_old - f_new) > _NOISE_FLOOR * _EPS * max(abs(f_old), abs(f_new)):
        return (f_old - f_new) / md, None
    trial = gradients_at_trial()
    if trial[1] is None:
        return -math.inf, trial
    decrease = -0.5 * float(np.dot(pg + trial[1], s))
    return (decrease / md if math.isfinite(decrease) else -math.inf), trial


def update_dt(dt: float, rho: float) -> float:
    """Trust-region adjustment of the time step, clamped to [_DT_MIN, _DT_MAX]."""
    dev = abs(1.0 - rho)
    if dev <= _ETA1:
        dt = _GAMMA1 * dt
    elif dev >= _ETA2:
        dt = _GAMMA2 * dt
    return min(max(dt, _DT_MIN), _DT_MAX)


def _finite(value) -> bool:
    return bool(np.isfinite(value).all())


def solve(problem, config: Optional[SolverConfig] = None,
          callback: Optional[Callable[[IterationRecord], None]] = None) -> SolveResult:
    """Minimize ``problem.objective`` subject to ``problem.cs`` (Ax = b).

    Parameters
    ----------
    problem
        Anything with ``objective(x) -> float``, ``gradient(x) -> array``,
        a ``cs`` ConstraintSystem and an initial point ``x0``, which
        :func:`make_feasible` checks and projects onto Ax = b before the
        first evaluation. A complex gradient raises TypeError, and one
        without n entries :class:`DimensionMismatchError`.
    config : SolverConfig, optional
        Tolerance, initial time step and iteration cap; validated defaults
        are used when omitted.
    callback : callable, optional
        Invoked once per loop iteration with the IterationRecord.

    Returns
    -------
    SolveResult
        The last adopted point (the projected start or an accepted step),
        its objective, multipliers, residuals, the counters and the history.
        An adopted point with a non-finite f or gradient or off Ax = b by
        more than ``1e-9 * (1 + ||b||_inf)``, or a non-finite trial gradient,
        ends NUMERICAL_ERROR; CONVERGED is exactly ``||pg||_inf <= config.eps``.
    """
    cfg = config if config is not None else SolverConfig()
    cfg.validate()

    cs = problem.cs
    feas_tol = 1e-9 * (1.0 + float(np.max(np.abs(cs.b))))

    n_g = 0

    def gradients(xv):
        """The gradient at xv and its projection; None for the projection
        when g is not finite. Counts each gradient and tests it once."""
        nonlocal n_g
        n_g += 1
        gv = _vector(np.asarray(problem.gradient(xv)).ravel(), cs.n, "gradient")
        return gv, (project_gradient(cs, gv) if _finite(gv) else None)

    x = make_feasible(cs, problem.x0)
    f = float(problem.objective(x))
    g, pg = gradients(x)

    history: List[IterationRecord] = []
    status = None
    pair: Optional[CurvaturePair] = None
    d = None
    dt, stalled = cfg.dt0, 0

    while status is None:
        if d is None:
            # Once per adopted point (the start or an accepted step): a rejected
            # trial keeps x, g and pg, so the checks, the norms and d carry over.
            if not (math.isfinite(f) and pg is not None
                    and float(np.abs(cs.A @ x - cs.b).max()) <= feas_tol):
                status = Status.NUMERICAL_ERROR
                continue
            pg_inf = float(np.abs(pg).max())
            if pg_inf <= cfg.eps:
                status = Status.CONVERGED
                continue
            pg_2 = math.sqrt(float(pg @ pg))
            d = direction(pg, pair)
        if len(history) >= cfg.max_iter:
            status = Status.MAX_ITERATIONS
            continue
        s = trial_step(dt, d)
        x_trial = x + s
        f_trial = float(problem.objective(x_trial))

        # s lies in null(A), so pg.s = g.s; g's range-space part only
        # adds rounding, which can cancel md below zero.
        md = model_decrease(dt, pg, s)
        rho, trial = trial_ratio(f, f_trial, md, pg, s, lambda: gradients(x_trial))
        accepted = rho > _ETA_A

        record = IterationRecord(len(history), f, pg_inf, pg_2, dt, rho, accepted, md)
        history.append(record)
        if callback is not None:
            callback(record)
        stalled = stalled + 1 if not accepted and dt <= _DT_MIN else 0
        # H has eigenvalues > 1/2, so the model decrease is bounded below
        # by dt/(4(1+dt)) * ||pg||^2 up to rounding.
        if not md >= dt / (4.0 * (1.0 + dt)) * pg_2 ** 2 - 1e-12:
            status = Status.NUMERICAL_ERROR
        elif stalled >= _STALL_LIMIT:
            status = Status.STALLED_TIME_STEP
        elif accepted or trial is not None:
            g_trial, pg_trial = trial if trial is not None else gradients(x_trial)
            if pg_trial is None:
                status = Status.NUMERICAL_ERROR
            elif accepted:
                pair = CurvaturePair.from_step(s, pg_trial - pg)
                x, f, g, pg, d = x_trial, f_trial, g_trial, pg_trial, None
        dt = update_dt(dt, rho)

    # x, f, g and pg are the last adopted point: the start or an accepted
    # step. pg is None exactly when g is not finite.
    lam = multipliers(cs, g) if pg is not None else np.full(cs.m, np.nan)
    kkt, feas = (residuals(cs, x, g, lam) if pg is not None and _finite(x)
                 else (math.inf, math.inf))
    return SolveResult(status=status, x_star=x, f_star=f, lambda_star=lam,
                       kkt_inf=kkt, feas_inf=feas,
                       steps=sum(1 for r in history if r.accepted),
                       total_iters=len(history), n_f=len(history) + 1,
                       n_g=n_g, history=history)
