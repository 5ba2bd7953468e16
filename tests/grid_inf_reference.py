"""The full-grid ``grid_inf`` that the coarse-to-fine screen in
``mdmvi.check`` replaced, kept as the reference that screen is tested
against.

It builds the whole box grid, scores every point's support gap against the
direction net in row chunks, keeps the points whose gap is at most delta
plus one grid step, appends the vertices, and takes the first row that
attains the minimum of f; the rows and f's values there come back with it.
"""

import numpy as np

from mdmvi.check import GridInf, _sphere_net
from mdmvi.functions import TestFunction, f_values
from mdmvi.geometry import Polytope


def box_grid(lo: np.ndarray, hi: np.ndarray, resolution: int) -> np.ndarray:
    axes = [
        np.array([0.5 * (a + b)]) if b - a <= 1e-12 else np.linspace(a, b, resolution)
        for a, b in zip(lo, hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


_GAP_ROWS = 4096  # rows per chunk of the support gap


def hull_support_gap(pts: np.ndarray, A: Polytope, B: Polytope, dirs: np.ndarray) -> np.ndarray:
    """Lower estimate of d(., [A,B]) via max directional margin, in chunks
    of rows that reuse one (rows, directions) buffer."""
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


def reference_grid_inf(
    f: TestFunction, A: Polytope, B: Polytope, delta: float, resolution: int
) -> GridInf:
    """Exhaustive minimum of f over the delta-inflated hull of A and B."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    V = np.vstack([A.vertices, B.vertices])
    lo = V.min(axis=0) - delta
    hi = V.max(axis=0) + delta
    pts = box_grid(lo, hi, resolution)
    spans = hi - lo
    step = float(np.max(spans / (resolution - 1))) if np.any(spans > 1e-12) else 0.0

    dirs = _sphere_net(V.shape[1], 512 if V.shape[1] == 2 else 2048)
    gaps = hull_support_gap(pts, A, B, dirs)
    pts = np.vstack([pts[gaps <= delta + step + 1e-12], V])

    vals = f_values(f, pts)
    best = int(np.argmin(vals))
    if not np.isfinite(vals[best]):
        raise ValueError("f is +inf on every grid point")
    return GridInf(float(vals[best]), pts[best].copy(), step, pts, vals)
