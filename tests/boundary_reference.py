"""Deterministic points on the boundary of C, the delta-inflated [A,B]:
the samples at which the tests check ``mdmvi.mdmvt.run``'s closed-form
boundary decay margin, mu - (max(r, s1) - K delta).

Seeds are a stride of a hull grid plus every vertex of A and B, pushed by
delta along a direction net (``_direction_net``) and taken in descending
order of their support-function lower bound; each one gets an exact
projection (``dist_to_hull``) until ``cap`` points at distance delta within
1e-9 are found or the bound drops below the cutoff.  A vertex pushed along
its normal cone is at distance exactly delta, so the samples include
points where the closed form is attained.
"""

import numpy as np

from mdmvi.geometry import Polytope, dist_to_hull, sphere_net


def _direction_net(n: int) -> np.ndarray:
    """Deterministic unit-direction net used only for cheap bounds: in 3-D,
    the 26 normalized cube directions and 128 spiral points."""
    if n <= 2:
        return sphere_net(n, 64)
    cube = np.array([c for c in np.ndindex(3, 3, 3) if c != (1, 1, 1)], dtype=float) - 1.0
    cube /= np.linalg.norm(cube, axis=1, keepdims=True)
    return np.vstack([cube, sphere_net(3, 128)])


def reference_boundary_samples(
    A: Polytope, B: Polytope, delta: float, hull_pts: np.ndarray, cap: int = 400,
) -> np.ndarray:
    """The boundary points seeded from ``hull_pts``, a grid of [A,B], or
    an empty (0, dim) array when none is found."""
    stride = max(1, len(hull_pts) // 50)
    seeds = hull_pts[::stride]
    V = np.vstack([A.vertices, B.vertices])
    corners = V[np.sort(np.unique(V, axis=0, return_index=True)[1])]
    fresh = ~(seeds[None] == corners[:, None]).all(axis=2).any(axis=1)
    seeds = np.vstack([seeds, corners[fresh]])
    dirs = _direction_net(A.dim)
    cands = (seeds[:, None, :] + delta * dirs[None, :, :]).reshape(-1, A.dim)

    support = np.max(V @ dirs.T, axis=0)
    lower = np.max(cands @ dirs.T - support[None, :], axis=1)
    order = sorted(range(len(cands)), key=lambda i: (-lower[i], i))

    out = []
    for i in order:
        if lower[i] < delta - max(0.05 * delta, 1e-6):
            break  # sorted: everything below is interior by a margin
        if abs(dist_to_hull(cands[i], A, B).d - delta) <= 1e-9:
            out.append(cands[i])
            if len(out) >= cap:
                break
    return np.array(out).reshape(-1, A.dim)
