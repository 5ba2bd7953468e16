"""Naive brute-force reference implementations, for testing and for the
independent verifier.

Deliberately independent of the analytic modules: hull membership is
decided by support functions over this module's own direction net (no
projection kernel), tent and smoothing values come from dense parameter
grids.  Agreement with the fast modules is then evidence rather than
tautology.  Grids are handled array-at-a-time: the support gap in row
chunks, f on all kept rows at once (``functions.f_values``).  Never used
inside the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import TestFunction, f_values
from .geometry import Polytope, as_point
from .supconv import SupConvSpec
from .tent import TentSpec


@dataclass(frozen=True, eq=False)
class GridInf:
    """Exhaustive grid minimum; the true infimum can undershoot the value
    by at most step times a Lipschitz constant of f."""

    value: float
    argmin: np.ndarray
    step: float


def _sphere_net(n: int, count: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    i = np.arange(count, dtype=float)
    golden = (1 + 5**0.5) / 2
    theta = np.arccos(np.clip(1 - 2 * (i + 0.5) / count, -1.0, 1.0))
    phi = 2 * np.pi * i / golden
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=1,
    )


def _box_grid(lo: np.ndarray, hi: np.ndarray, resolution: int) -> np.ndarray:
    axes = [
        np.array([0.5 * (a + b)]) if b - a <= 1e-12 else np.linspace(a, b, resolution)
        for a, b in zip(lo, hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


_GAP_ROWS = 4096  # rows per chunk of the support gap


def _hull_support_gap(pts: np.ndarray, A: Polytope, B: Polytope, dirs: np.ndarray) -> np.ndarray:
    """Lower estimate of d(., [A,B]) via max directional margin.

    Computed in chunks of rows, reusing one (rows, directions) buffer, so
    memory stays small on dense grids; each row gets the same bits as in
    the one-shot expression max(pts @ dirs.T - support, axis=1)."""
    hA = np.max(A.vertices @ dirs.T, axis=0)
    hB = np.max(B.vertices @ dirs.T, axis=0)
    support = np.maximum(hA, hB)
    gaps = np.empty(len(pts))
    buf = np.empty((min(len(pts), _GAP_ROWS), len(dirs)))
    for i in range(0, len(pts), _GAP_ROWS):
        chunk = pts[i : i + _GAP_ROWS]
        margins = np.matmul(chunk, dirs.T, out=buf[: len(chunk)])
        margins -= support
        margins.max(axis=1, out=gaps[i : i + len(chunk)])
    return np.maximum(gaps, 0.0, out=gaps)


def grid_inf(
    f: TestFunction, A: Polytope, B: Polytope, delta: float, resolution: int
) -> GridInf:
    """Exhaustive minimum of f over the delta-inflated hull of A and B.

    Box-grid points whose support gap exceeds delta plus one grid step are
    dropped; the vertices are appended; the first row attaining the
    minimum of f over the rest is the argmin."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    V = np.vstack([A.vertices, B.vertices])
    lo = V.min(axis=0) - delta
    hi = V.max(axis=0) + delta
    pts = _box_grid(lo, hi, resolution)
    spans = hi - lo
    step = float(np.max(spans / (resolution - 1))) if np.any(spans > 1e-12) else 0.0

    dirs = _sphere_net(V.shape[1], 512 if V.shape[1] == 2 else 2048)
    gaps = _hull_support_gap(pts, A, B, dirs)
    pts = np.vstack([pts[gaps <= delta + step + 1e-12], V])

    vals = f_values(f, pts)
    best = int(np.argmin(vals))
    if not np.isfinite(vals[best]):
        raise ValueError("f is +inf on every grid point")
    return GridInf(float(vals[best]), pts[best].copy(), step)


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
