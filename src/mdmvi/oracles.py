"""Naive brute-force references, for the tests and ``mdmvi selftest``:
never used inside the pipeline or by the checker.

Deliberately independent of the analytic modules: tent and smoothing
values come from dense parameter grids, and hull membership from support
functions over a direction net (``check._sphere_net``), with no
projection kernel.  Agreement with the fast modules is then evidence
rather than tautology.  ``grid_inf`` is ``check``'s, bound here too, the
name under which the benchmark counts it.
"""

from __future__ import annotations

import numpy as np

from .check import _max_margin, _sphere_net, _support
from .check import grid_inf  # noqa: F401  (the benchmark counts it under this name)
from .geometry import Polytope, as_point
from .supconv import SupConvSpec
from .tent import TentSpec


def _hull_support_gap(pts: np.ndarray, A: Polytope, B: Polytope, dirs: np.ndarray) -> np.ndarray:
    """Lower estimate of d(., [A,B]) via max directional margin, clipped
    at 0; each row gets the same bits as in the one-shot expression
    max(pts @ dirs.T - support, axis=1).  ``grid_inf`` does not score its
    whole grid this way: its screen (``check._screen``) bounds the gap on
    boxes and scores exactly only the points near the threshold, and keeps
    the same points."""
    gaps = _max_margin(pts, _support(A, B, dirs), dirs)
    return np.maximum(gaps, 0.0, out=gaps)


def psi_brute(x, t: TentSpec, resolution: int) -> float:
    """Dense-grid tent value: maximize lam * r + (1 - lam) * s over the
    interpolation grid, with membership of x in lam A + (1 - lam) B decided
    by support functions over a direction net; -inf if no feasible lam."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    x = as_point(x, t.dim)
    lam = np.linspace(0.0, 1.0, resolution + 1)
    diam = 0.0
    V = np.vstack([t.A.vertices, t.B.vertices])
    for v in V:
        for w in V:
            diam = max(diam, float(np.linalg.norm(v - w)))
    # the interpolated set moves at Hausdorff rate diam in lam, so half a
    # grid step of slack admits the nearest grid lam to any feasible one
    feas_tol = 0.5 * (1.0 / resolution) * diam + 1e-12

    dirs = _sphere_net(t.dim, 2048 if t.dim >= 2 else 2)
    hA = np.max(t.A.vertices @ dirs.T, axis=0)
    hB = np.max(t.B.vertices @ dirs.T, axis=0)
    # support of lam A + (1-lam) B separates across the Minkowski sum
    margins = (dirs @ x)[None, :] - (lam[:, None] * hA[None, :] + (1 - lam)[:, None] * hB[None, :])
    feasible = np.max(margins, axis=1) <= feas_tol
    if not feasible.any():
        return -np.inf
    vals = lam * t.r + (1 - lam) * t.s
    return float(np.max(vals[feasible]))


def _polytope_grid(P: Polytope, per_axis: int) -> np.ndarray:
    """Dense sample of a polytope through a weight-simplex grid."""
    m = P.num_vertices
    if m == 1:
        return P.vertices.copy()
    k = max(per_axis, 1)
    cuts = [c for c in np.ndindex(*([k + 1] * (m - 1))) if sum(c) <= k]
    pts = []
    for c in cuts:
        w = np.array(list(c) + [k - sum(c)], dtype=float) / k
        pts.append(w @ P.vertices)
    return np.array(pts)


def phi_brute(x, sc: SupConvSpec, resolution: int) -> float:
    """Dense-grid sup-convolution value: maximize the decomposition score
    lam r + (1 - lam) s - K ||x - (lam u + (1 - lam) v)|| over gridded
    (lam, u, v)."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    t = sc.tent
    x = as_point(x, t.dim)
    lam = np.linspace(0.0, 1.0, resolution + 1)

    budget = 400_000
    per_axis = max(2, int(round((budget / max(len(lam), 1)) ** 0.5)))
    U = _polytope_grid(t.A, min(per_axis, 120))
    W = _polytope_grid(t.B, min(per_axis, 120))

    best = -np.inf
    for lv in lam:
        pts = lv * U[:, None, :] + (1 - lv) * W[None, :, :]
        dist = np.linalg.norm(pts - x, axis=2)
        score = lv * t.r + (1 - lv) * t.s - sc.K * dist
        best = max(best, float(score.min() if score.size == 0 else score.max()))
    return best
