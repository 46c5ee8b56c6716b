"""Dense reference implementations shared by the tests."""

from typing import Optional

import numpy as np
from scipy.optimize import minimize

from eqflow.direction import CurvaturePair, curvature_gate


def dense_h(pair: Optional[CurvaturePair], theta: float, n: int) -> np.ndarray:
    """Materialize the quasi-Newton H as an n-by-n matrix (test scale only)."""
    if not curvature_gate(pair, theta):
        return np.eye(n)
    s, y, c = pair.s, pair.y, pair.s_dot_y
    return (np.eye(n)
            - (np.outer(y, s) + np.outer(s, y)) / c
            + (2.0 * pair.y_sq / c**2) * np.outer(s, s))


def ex8_block_minimum() -> float:
    """Global minimum of one ex8 block by a dense multi-start search.

    The block minimizes ``x^2 + x^2 z^2 + 2xy + y^4 + 8y`` on
    ``2x + 5y + z = 3``. With z eliminated it is a smooth function of
    (x, y), minimized by BFGS from every start of a 9-by-9 grid over
    [-4, 4]^2; the least value found is returned.
    """
    def f(v):
        x, y = v
        z = 3.0 - 2.0 * x - 5.0 * y
        return x * x + x * x * z * z + 2.0 * x * y + y ** 4 + 8.0 * y

    def grad(v):
        x, y = v
        z = 3.0 - 2.0 * x - 5.0 * y
        fx = 2.0 * x * (1.0 + z * z) + 2.0 * y
        fy = 2.0 * x + 4.0 * y ** 3 + 8.0
        fz = 2.0 * x * x * z  # z moves by -2 per unit x and -5 per unit y
        return np.array([fx - 2.0 * fz, fy - 5.0 * fz])

    starts = np.linspace(-4.0, 4.0, 9)
    return float(min(minimize(f, (x, y), jac=grad, method="BFGS",
                              options={"gtol": 1e-10}).fun
                     for x in starts for y in starts))
