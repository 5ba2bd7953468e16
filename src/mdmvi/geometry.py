"""Vertex-represented polytopes, the joint hull of two of them, inflations,
distances, and linear-functional infima.

Every operation is a pure function of its inputs; constructed objects are
treated as immutable, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


class DimensionMismatch(ValueError):
    """Raised when points or polytopes of different dimensions are mixed."""


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"a point must be one-dimensional, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


@dataclass(frozen=True, eq=False)
class Polytope:
    """Nonempty bounded convex set given by its vertices (one per row).

    Boundedness is automatic from the finite vertex list.  A 1-D input
    array is read as a single vertex.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise ValueError("a polytope needs at least one vertex of dimension >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("polytope vertices must be finite")
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    def support(self, d: np.ndarray) -> float:
        """Support function h(d) = max over vertices of <d, v>."""
        return float(np.max(self.vertices @ d))

    def to_json(self) -> list[list[float]]:
        return [[float(c) for c in row] for row in self.vertices]

    @classmethod
    def from_json(cls, data) -> "Polytope":
        return cls(np.asarray(data, dtype=float))


@dataclass(eq=False)
class HullCoords:
    """Weights (gamma over A's vertices, eta over B's) for a point of [A,B].

    The represented point is sum(gamma_i a_i) + sum(eta_j b_j); all weights
    are nonnegative and jointly sum to one.  Construction is unchecked for
    speed inside optimizers; call ``validate`` at API boundaries.
    """

    gamma: np.ndarray
    eta: np.ndarray

    @property
    def lam(self) -> float:
        """Total weight on A, the interpolation parameter of the hull."""
        return float(np.sum(self.gamma))

    def weights(self) -> np.ndarray:
        return np.concatenate([self.gamma, self.eta])

    def point(self, A: Polytope, B: Polytope) -> np.ndarray:
        return self.gamma @ A.vertices + self.eta @ B.vertices

    def validate(self, atol: float = 1e-12) -> "HullCoords":
        w = self.weights()
        if np.any(w < -atol):
            raise ValueError("hull coordinates must be nonnegative")
        if abs(float(np.sum(w)) - 1.0) > atol:
            raise ValueError("hull coordinates must sum to one")
        return self


@dataclass(frozen=True, eq=False)
class HullInflation:
    """The set C = closure of [A,B] inflated by delta (delta >= 0)."""

    A: Polytope
    B: Polytope
    delta: float

    def __post_init__(self):
        if self.A.dim != self.B.dim:
            raise DimensionMismatch("A and B must share a dimension")
        if not (np.isfinite(self.delta) and self.delta >= 0):
            raise ValueError("delta must be finite and nonnegative")

    def classify(self, x, tol: float = 1e-7) -> str:
        return classify_point(x, self.A, self.B, self.delta, tol)


class DistResult(NamedTuple):
    d: float
    point: np.ndarray
    coords: HullCoords


def hull_vertex_matrix(A: Polytope, B: Polytope) -> np.ndarray:
    """Stacked vertex rows of A then B; [A,B] is their joint convex hull."""
    if A.dim != B.dim:
        raise DimensionMismatch("A and B must share a dimension")
    return np.vstack([A.vertices, B.vertices])


def hull_diameter(A: Polytope, B: Polytope) -> float:
    V = hull_vertex_matrix(A, B)
    diff = V[:, None, :] - V[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2)).max())


def _direction_net(n: int) -> np.ndarray:
    """Deterministic unit-direction net used only for cheap bounds."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    combos = np.array(
        [c for c in np.ndindex(*([3] * n)) if any(v != 1 for v in c)], dtype=float
    )
    dirs = combos - 1.0
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if n != 3:
        return dirs
    k = 128
    i = np.arange(k, dtype=float)
    golden = (1 + 5**0.5) / 2
    theta = np.arccos(1 - 2 * (i + 0.5) / k)
    phi = 2 * np.pi * i / golden
    sphere = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=1,
    )
    return np.vstack([dirs, sphere])


def _affine_simplex_lsq(Vs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Least squares of ||w @ Vs - x|| subject to sum(w) = 1 (sign-free)."""
    k = Vs.shape[0]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = Vs @ Vs.T
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([Vs @ x, [1.0]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:k]


def _polish_projection(V: np.ndarray, x: np.ndarray, w0: np.ndarray) -> np.ndarray | None:
    """Active-set refinement of a near-optimal simplex-weight projection."""
    active = np.nonzero(w0 > 1e-10)[0]
    if active.size == 0:
        active = np.array([int(np.argmin(np.linalg.norm(V - x, axis=1)))])
    for _ in range(V.shape[0] + 1):
        ws = _affine_simplex_lsq(V[active], x)
        if ws.min() >= -1e-12:
            w = np.zeros(V.shape[0])
            w[active] = np.clip(ws, 0.0, None)
            w /= w.sum()
            return w
        if active.size == 1:
            return None
        active = np.delete(active, int(np.argmin(ws)))
    return None


def dist_to_hull(x, A: Polytope, B: Polytope) -> DistResult:
    """Euclidean distance from x to [A,B] with the nearest point and its
    hull coordinates.

    Membership is decided exactly by a feasibility LP; exterior points are
    projected by Frank-Wolfe over the joint vertex simplex followed by an
    active-set polish, accurate to well below 1e-8.
    """
    from .simplex_optim import ConcaveObjective, LPProblem, maximize_concave, solve_lp

    V = hull_vertex_matrix(A, B)
    x = as_point(x, V.shape[1])
    mA = A.num_vertices
    m = V.shape[0]

    lp = LPProblem(
        objective=np.zeros(m),
        eq_matrix=np.vstack([V.T, np.ones((1, m))]),
        eq_rhs=np.concatenate([x, [1.0]]),
    )
    res = solve_lp(lp, want_dual=False)
    if res.status == "optimal":
        w = res.x
        y = w @ V
        coords = HullCoords(w[:mA], w[mA:]).validate(1e-9)
        return DistResult(float(np.linalg.norm(x - y)), y, coords)

    def value(c: HullCoords) -> float:
        r = c.weights() @ V - x
        return -0.5 * float(r @ r)

    def supergrad(c: HullCoords) -> np.ndarray:
        return -V @ (c.weights() @ V - x)

    def line_max(w: np.ndarray, d: np.ndarray, t_max: float) -> float:
        rho = w @ V - x
        sig = d @ V
        denom = float(sig @ sig)
        if denom <= 1e-18:
            return 0.0
        t = -float(rho @ sig) / denom
        return float(np.clip(t, 0.0, t_max))

    fw = maximize_concave(
        ConcaveObjective(value=value, supergrad=supergrad, line_max=line_max),
        (mA, m - mA),
        tol=1e-12,
        max_iters=500,
    )
    w = fw.coords.weights()
    polished = _polish_projection(V, x, w)
    if polished is not None and np.linalg.norm(polished @ V - x) <= np.linalg.norm(w @ V - x):
        w = polished
    y = w @ V
    coords = HullCoords(w[:mA], w[mA:]).validate(1e-9)
    return DistResult(float(np.linalg.norm(x - y)), y, coords)


def classify_point(x, A: Polytope, B: Polytope, delta: float, tol: float = 1e-7) -> str:
    """Ternary position of x relative to C = closure of the delta-inflated hull."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    d = dist_to_hull(x, A, B).d
    if abs(d - delta) <= tol:
        return BOUNDARY
    return INTERIOR if d < delta else EXTERIOR


def inf_linear(p, S: Polytope) -> float:
    """Minimum of the linear functional <p, .> over S (attained at a vertex)."""
    p = as_point(p, S.dim)
    return float(np.min(S.vertices @ p))


def sample_set(A: Polytope, B: Polytope, delta: float, resolution: int) -> np.ndarray:
    """Deterministic axis-aligned grid covering the delta-inflated hull.

    Grid points farther than delta plus one grid step from [A,B] are
    dropped; all vertices of A and B are appended.  Identical inputs give
    identical output arrays.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    V = hull_vertex_matrix(A, B)
    lo = V.min(axis=0) - delta
    hi = V.max(axis=0) + delta

    axes = []
    step = 0.0
    for a, b in zip(lo, hi):
        if b - a <= 1e-12:
            axes.append(np.array([0.5 * (a + b)]))
        else:
            axes.append(np.linspace(a, b, resolution))
            step = max(step, (b - a) / (resolution - 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)

    thresh = delta + step + 1e-12
    upper = np.min(
        np.linalg.norm(pts[:, None, :] - V[None, :, :], axis=2), axis=1
    )
    dirs = _direction_net(V.shape[1])
    support = np.max(V @ dirs.T, axis=0)
    lower = np.max(pts @ dirs.T - support[None, :], axis=1)
    lower = np.maximum(lower, 0.0)

    keep = np.zeros(len(pts), dtype=bool)
    keep[upper <= thresh] = True
    undecided = np.nonzero(~keep & (lower <= thresh))[0]
    for i in undecided:
        keep[i] = dist_to_hull(pts[i], A, B).d <= thresh
    pts = pts[keep]

    extra = [v for v in V if not any(np.array_equal(v, q) for q in pts)]
    if extra:
        pts = np.vstack([pts, np.array(extra)])
    return pts
