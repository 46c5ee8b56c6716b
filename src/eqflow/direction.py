"""Single-pair quasi-Newton search direction.

The inverse-curvature model H is a rank-two update of the identity built
from the most recent accepted step ``s`` and projected-gradient difference
``y``.  H is never stored: the search direction -H @ pg is assembled from
three inner products with the cached pair scalars.  Every eigenvalue of H
exceeds 1/2, so -H @ pg is always a descent direction for pg.

The direction is assembled in place in two length-n buffers, with the
operations of ``-pg + (y*s_pg + s*y_pg)/c - (2*y_sq*s_pg/c**2)*s`` in
that order; each rounds as in the expression (``a - pg`` equals
``-pg + a`` bit for bit), so the bits are those of the expression.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .projection import _vector

# The quasi-Newton pair is used only when |s.y| > _THETA * ||s||^2.
_THETA = 1e-6


@dataclass(frozen=True)
class CurvaturePair:
    """An accepted step ``s`` and projected-gradient change ``y``.

    The inner products consumed by the direction formula are computed once
    here and cached; per-iteration work then stays at three new inner
    products. ``None`` stands in for the empty pair of the first iteration.
    """

    s: np.ndarray
    y: np.ndarray
    s_dot_y: float
    s_sq: float
    y_sq: float

    @classmethod
    def from_step(cls, s, y) -> "CurvaturePair":
        s = _vector(s, np.size(s), "step")
        y = _vector(y, s.size, "gradient change")
        return cls(s=s, y=y, s_dot_y=float(s @ y), s_sq=float(s @ s),
                   y_sq=float(y @ y))


def curvature_gate(pair: Optional[CurvaturePair]) -> bool:
    """True iff |s.y| > _THETA * ||s||^2; an absent or zero pair fails."""
    if pair is None or pair.s_sq == 0.0:
        return False
    return abs(pair.s_dot_y) > _THETA * pair.s_sq


def direction(pg, pair: Optional[CurvaturePair]) -> np.ndarray:
    """Return d = -H @ pg for the gated rank-two H (identity if gate fails),
    assembled in place as the module docstring says."""
    if not curvature_gate(pair):
        return -_vector(pg, np.size(pg), "projected gradient")
    pg = _vector(pg, pair.s.size, "projected gradient")
    c = pair.s_dot_y
    s_pg = float(pair.s @ pg)
    y_pg = float(pair.y @ pg)
    d = pair.y * s_pg
    t = pair.s * y_pg
    d += t
    d /= c
    d -= pg
    np.multiply(pair.s, 2.0 * pair.y_sq * s_pg / c**2, out=t)
    d -= t
    return d

