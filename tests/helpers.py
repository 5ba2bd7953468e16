"""Checks that only the tests use: a hull's diameter, membership of a
slope in the eps-subdifferential of a catalog function, decided on a
grid, and a smoothing kernel that certifies a refused gap on chosen
points."""

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


def force_gap(monkeypatch, points, gap: float = 2e-4) -> list:
    """Make the smoothing kernel certify ``gap`` at every row whose bytes
    are in ``points``, above the 1e-4 that is refused; the returned list
    gets the bytes of each such row the kernel evaluates."""
    import mdmvi.supconv as supconv

    real, hits = supconv._kernel, []

    def kernel(sc, X):
        out = real(sc, X)
        hit = np.array([x.tobytes() in points for x in X], dtype=bool)
        hits.extend(x.tobytes() for x in X[hit])
        return out._replace(gap=np.where(hit, gap, out.gap))

    monkeypatch.setattr(supconv, "_kernel", kernel)
    return hits
