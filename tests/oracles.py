"""Dense reference implementations shared by the tests."""

from typing import Optional

import numpy as np

from eqflow import CurvaturePair, curvature_gate


def dense_h(pair: Optional[CurvaturePair], theta: float, n: int) -> np.ndarray:
    """Materialize the quasi-Newton H as an n-by-n matrix (test scale only)."""
    if not curvature_gate(pair, theta):
        return np.eye(n)
    s, y, c = pair.s, pair.y, pair.s_dot_y
    return (np.eye(n)
            - (np.outer(y, s) + np.outer(s, y)) / c
            + (2.0 * pair.y_sq / c**2) * np.outer(s, s))
