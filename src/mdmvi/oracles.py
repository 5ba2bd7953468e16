"""Naive brute-force reference implementations, for testing and for the
independent verifier.

Deliberately independent of the analytic modules: hull membership is
decided by support functions over this module's own direction net (no
projection kernel), tent and smoothing values come from dense parameter
grids.  Agreement with the fast modules is then evidence rather than
tautology.  Never used inside the pipeline.

``grid_inf`` screens its box grid coarse to fine.  The support gap
g(x) = max_d (d.x - h(d)) is a maximum of affine functions whose slopes d
have norm at most L = max ||d||, so g is L-Lipschitz and its value at a
box's centre c bounds it on the whole box: |g(x) - g(c)| <= L rho + eta,
rho the distance from c to a corner and eta = 1e-12 (1 + the largest
coordinate or support value) a margin for rounding (Lipschitz branch and
bound: Piyavskii 1972; Shubert 1972).  Boxes the bound settles are kept or
dropped whole; the rest are halved, a level of boxes at a time, down to
single grid points, whose gap is evaluated exactly.  The kept set is the
one the full grid gives, at a small share of its gap rows; f is then read
on all kept rows at once; the result holds those rows and f's values.
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
    """Exhaustive grid minimum over the rows ``pts`` (screened box points
    in C order, then the vertices; f there in ``vals``).  The true infimum
    can undershoot it by at most step times a Lipschitz constant of f."""

    value: float
    argmin: np.ndarray
    step: float
    pts: np.ndarray
    vals: np.ndarray


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


def _grid_axes(lo: np.ndarray, hi: np.ndarray, resolution: int) -> list[np.ndarray]:
    """Box-grid coordinates along each axis; an axis whose span is at most
    1e-12 holds its midpoint alone."""
    return [
        np.array([0.5 * (a + b)]) if b - a <= 1e-12 else np.linspace(a, b, resolution)
        for a, b in zip(lo, hi)
    ]


def _support(A: Polytope, B: Polytope, dirs: np.ndarray) -> np.ndarray:
    """h(d) = max of d.v over the vertices v of A and B, per direction."""
    return np.maximum(np.max(A.vertices @ dirs.T, axis=0), np.max(B.vertices @ dirs.T, axis=0))


_GAP_ROWS = 4096  # rows per chunk of the support gap


def _max_margin(pts: np.ndarray, support: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """max_d (d.x - h(d)) for each row x of pts: the support gap before
    it is clipped at 0.

    Row chunks reuse one (rows, directions) buffer.  A row gets the same
    bits whichever rows share its chunk: BLAS takes a lone row down a
    matrix-vector path that rounds differently, so a one-row chunk is
    evaluated as two copies of itself."""
    out = np.empty(len(pts))
    buf = np.empty((max(min(len(pts), _GAP_ROWS), 2), len(dirs)))
    for i in range(0, len(pts), _GAP_ROWS):
        chunk = pts[i : i + _GAP_ROWS]
        rows = len(chunk)
        if rows == 1:
            chunk = np.repeat(chunk, 2, axis=0)
        margins = np.matmul(chunk, dirs.T, out=buf[: len(chunk)])
        margins -= support
        margins[:rows].max(axis=1, out=out[i : i + rows])
    return out


def _hull_support_gap(pts: np.ndarray, A: Polytope, B: Polytope, dirs: np.ndarray) -> np.ndarray:
    """Lower estimate of d(., [A,B]) via max directional margin, clipped
    at 0; each row gets the same bits as in the one-shot expression
    max(pts @ dirs.T - support, axis=1).  ``grid_inf`` does not score its
    whole grid this way: its screen (``_screen``) bounds the gap on boxes
    and scores exactly only the points near the threshold, and keeps the
    same points."""
    gaps = _max_margin(pts, _support(A, B, dirs), dirs)
    return np.maximum(gaps, 0.0, out=gaps)


def _halve(first: np.ndarray, last: np.ndarray, upper: np.ndarray):
    """The children of each box [first, last]: every index range longer
    than one splits into [first, mid] and [mid + 1, last].  ``upper`` lists
    the 2^n choices of half per axis; a choice of the upper half on an axis
    of length one makes no child."""
    first, last = first[:, None, :], last[:, None, :]
    mid = (first + last) // 2
    ok = np.all((last > first) | ~upper, axis=2)
    return np.where(upper, mid + 1, first)[ok], np.where(upper, last, mid)[ok]


def _cover(first: np.ndarray, last: np.ndarray, shape, corners: np.ndarray) -> np.ndarray:
    """Boolean mask, of the grid's shape, of the points in the disjoint
    boxes [first, last]: each box adds +-1 at its 2^n corners (``corners``
    picks last + 1 over first per axis), and prefix sums along every axis
    fill it in."""
    count = np.zeros(tuple(s + 1 for s in shape), dtype=np.intp)
    for corner in corners:
        np.add.at(count, tuple(np.where(corner, last + 1, first).T), (-1) ** int(corner.sum()))
    for k in range(len(shape)):
        np.cumsum(count, axis=k, out=count)
    return count[tuple(slice(0, s) for s in shape)] > 0


def _screen(
    axes: list[np.ndarray], support: np.ndarray, dirs: np.ndarray, thr: float
) -> np.ndarray:
    """Boolean mask, of the grid's shape, of the points x with
    max(g(x), 0) <= thr, g the support gap, without scoring every point.

    A box is a range [first, last] of indices per axis; one box covering
    the grid is the start.  For a box with centre c and corner distance
    rho, every grid point x in it has

        |g(x) - g(c)| <= L rho + eta,   L = max ||d|| over the net,

    with g as computed (``_max_margin``) on both sides and
    eta = 1e-12 (1 + max(|coordinate|, |h|)) covering its rounding and
    that of c and rho.  The box is kept whole when g(c) + L rho + eta < thr
    and dropped whole when g(c) - L rho - eta > thr; otherwise it is halved
    (``_halve``).  A box of one point is its own centre and is compared
    exactly, g(x) <= thr, as on the full grid; thr > 0, so clipping at 0
    changes no comparison.  Each level of boxes is one batch."""
    shape = tuple(len(a) for a in axes)
    n = len(axes)
    lip = float(np.max(np.linalg.norm(dirs, axis=1)))
    scale = max(float(np.max(np.abs(support))), *(float(np.max(np.abs(a))) for a in axes))
    eta = 1e-12 * (1.0 + scale)
    upper = np.array(list(np.ndindex(*[2] * n)), dtype=bool)  # one half per axis
    first = np.zeros((1, n), dtype=np.intp)
    last = np.array([shape], dtype=np.intp) - 1
    kept_first, kept_last = [], []
    while len(first):
        lo = np.stack([a[i] for a, i in zip(axes, first.T)], axis=1)
        hi = np.stack([a[i] for a, i in zip(axes, last.T)], axis=1)
        centre = 0.5 * (lo + hi)
        gap = _max_margin(centre, support, dirs)
        reach = lip * np.linalg.norm(hi - centre, axis=1) + eta
        point = np.all(first == last, axis=1)
        keep = np.where(point, gap <= thr, gap + reach < thr)
        split = ~point & ~keep & (gap - reach <= thr)
        kept_first.append(first[keep])
        kept_last.append(last[keep])
        first, last = _halve(first[split], last[split], upper)
    return _cover(np.concatenate(kept_first), np.concatenate(kept_last), shape, upper)


def grid_inf(
    f: TestFunction, A: Polytope, B: Polytope, delta: float, resolution: int
) -> GridInf:
    """Exhaustive minimum of f over the delta-inflated hull of A and B.

    Box-grid points whose support gap exceeds thr = delta + one grid step
    + 1e-12 are dropped.  The coarse-to-fine screen (``_screen``) decides
    this box by box: the gap g(c) at a box's centre, plus or minus L rho +
    eta (L the net's largest norm, rho the centre's distance to a corner,
    eta = 1e-12 (1 + largest coordinate or support value) for rounding),
    keeps or drops the whole box; boxes it leaves undecided are halved down
    to single points, scored exactly.  The kept points are exactly those
    of a full-grid evaluation.  They, in C order, then the vertices, are
    the rows, and the first row attaining the minimum of f over them is
    the argmin."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    V = np.vstack([A.vertices, B.vertices])
    lo = V.min(axis=0) - delta
    hi = V.max(axis=0) + delta
    axes = _grid_axes(lo, hi, resolution)
    spans = hi - lo
    step = float(np.max(spans / (resolution - 1))) if np.any(spans > 1e-12) else 0.0

    dirs = _sphere_net(V.shape[1], 512 if V.shape[1] == 2 else 2048)
    index = _screen(axes, _support(A, B, dirs), dirs, delta + step + 1e-12).nonzero()
    pts = np.vstack([np.stack([a[i] for a, i in zip(axes, index)], axis=1), V])

    vals = f_values(f, pts)
    best = int(np.argmin(vals))
    if not np.isfinite(vals[best]):
        raise ValueError("f is +inf on every grid point")
    return GridInf(float(vals[best]), pts[best].copy(), step, pts, vals)


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
