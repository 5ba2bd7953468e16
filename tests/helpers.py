"""Checks that only the tests use: a hull's diameter, and membership of a
slope in the eps-subdifferential of a catalog function, decided on a
grid."""

import numpy as np

from mdmvi.functions import TestFunction, f_eval
from mdmvi.geometry import Polytope, as_point, hull_vertex_matrix


def hull_diameter(A: Polytope, B: Polytope) -> float:
    V = hull_vertex_matrix(A, B)
    diff = V[:, None, :] - V[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2)).max())


def eps_subdiff_check(
    f: TestFunction, x, p, eps: float, grid, tol_check: float = 1e-7
) -> bool:
    """True iff <p, z - x> <= f(z) - f(x) + eps + tol_check on the grid
    (points outside dom f impose no constraint)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    x = as_point(x, f.dim)
    p = as_point(p, f.dim)
    fx = f_eval(f, x)
    if not np.isfinite(fx):
        raise ValueError("f(x) must be finite")
    for z in np.asarray(grid, dtype=float):
        fz = f_eval(f, z)
        if not np.isfinite(fz):
            continue
        if float(p @ (z - x)) > fz - fx + eps + tol_check:
            return False
    return True
