"""The concave tent over a pair of polytopes: the function whose hypograph
is the convex hull of A x (-inf, r] and B x (-inf, s].

On the joint hull [A,B] the tent is the upper envelope of the lifted
vertices (v_i, level_i), the lifting-map picture of a regular subdivision
(Gelfand, Kapranov & Zelevinsky 1994).  By LP duality it is the minimum of
finitely many affine pieces, one per upper-hull facet.  ``TentSpec`` builds
those pieces once; a tent value, its hull coordinates and an exact
supergradient then come from one barycentric product, with no LP.  The
tent is minus infinity outside [A,B].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (
    HullCoords,
    Polytope,
    affine_frame,
    as_point,
    independent_subsets,
    inf_linear,
    row_dot,
)

DEFAULT_CHECK_TOL = 1e-7
_FEAS_TOL = 1e-9  # hull membership: distance off the affine hull and simplex
_CHUNK = 1 << 16  # entries of each batched barycentric product


class _Facets(NamedTuple):
    """The tent's affine pieces.  Piece j is the plane through the lifted
    vertices ``verts[j]``, whose simplex is affinely independent in the
    affine hull of [A,B]; ``slope[j]``, the plane's gradient, lies in the
    hull's own direction space.  The affine map ``x @ lin + shift`` gives,
    for a point x, the barycentric weights of x in every simplex, piece
    after piece, followed by the residual of x off the affine hull (empty
    when the hull spans the space).  A weight above ``-slack`` puts x
    within the feasibility tolerance of that facet of the simplex."""

    verts: np.ndarray  # (P, k+1) vertex indices
    levels: np.ndarray  # (P, k+1) their levels
    slope: np.ndarray  # (P, n)
    slack: np.ndarray  # (P, k+1)
    lin: np.ndarray  # (n, P*(k+1) + n - k)
    shift: np.ndarray  # (P*(k+1) + n - k,)


def _facets(V: np.ndarray, levels: np.ndarray) -> _Facets:
    """Upper-hull facets of the lifted vertices (v_i, level_i).

    Reduces V to its affine hull (``geometry.affine_frame``), fits the plane
    through every affinely independent (k+1)-subset S
    (``geometry.independent_subsets``) in one batched solve,
    and keeps S when its plane lies on or above every lifted vertex: those
    are exactly the dual-feasible bases of the tent LP.  Every kept plane
    majorizes the tent on [A,B] and meets it on conv(S), and the kept
    simplices cover [A,B].
    """
    n = V.shape[1]
    center, vt, k = affine_frame(V)
    basis = vt[:k].T
    Vr = (V - center) @ basis
    subsets, M = independent_subsets(Vr, k + 1)
    coef = np.linalg.solve(M, levels[subsets][..., None])[..., 0]
    p, c = coef[:, :k], coef[:, k]
    scale = 1.0 + np.abs(levels).max() + (
        np.linalg.norm(p, axis=1) * np.linalg.norm(Vr, axis=1).max()
    )
    keep = np.all(Vr @ p.T + c - levels[:, None] >= -1e-12 * scale, axis=0)
    # weights of x: bary @ [(x - center) @ basis, 1]; residual: the part of
    # x - center orthogonal to the basis, in the complement's coordinates
    bary = np.linalg.inv(M[keep].transpose(0, 2, 1))
    G = (bary[:, :, :k] @ basis.T).reshape(-1, n)
    h = bary[:, :, k].ravel() - G @ center
    perp = vt[k:]
    return _Facets(
        verts=subsets[keep],
        levels=levels[subsets[keep]],
        slope=p[keep] @ basis.T,
        slack=_FEAS_TOL * np.linalg.norm(G, axis=1).reshape(-1, k + 1),
        lin=np.vstack([G, perp]).T,
        shift=np.concatenate([h, -perp @ center]),
    )


@dataclass(frozen=True, eq=False)
class TentSpec:
    """Anchor sets A, B with levels r over A and s over B; r != s."""

    A: Polytope
    B: Polytope
    r: float
    s: float
    V: np.ndarray = field(init=False, repr=False)  # vertex rows of A, then of B
    levels: np.ndarray = field(init=False, repr=False)  # r at A's rows, s at B's
    facets: _Facets = field(init=False, repr=False)

    def __post_init__(self):
        if self.A.dim != self.B.dim:
            raise ValueError("A and B must share a dimension")
        for v in (self.r, self.s):
            if not np.isfinite(v):
                raise ValueError("levels must be finite")
        if self.r == self.s:
            raise ValueError("tent levels r and s must differ")
        V = np.vstack([self.A.vertices, self.B.vertices])
        levels = np.concatenate(
            [np.full(self.A.num_vertices, float(self.r)),
             np.full(self.B.num_vertices, float(self.s))]
        )
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "facets", _facets(V, levels))

    @property
    def dim(self) -> int:
        return self.A.dim


@dataclass(frozen=True, eq=False)
class PsiValue:
    """Tent value at a point; -inf with no coordinates outside the hull.

    ``slope`` is an exact supergradient, the gradient of the facet plane
    whose simplex holds the point (None outside the hull).
    """

    value: float
    coords: HullCoords | None
    slope: np.ndarray | None = None

    @property
    def lam(self) -> float | None:
        return None if self.coords is None else self.coords.lam


class SuperdiffCheck(NamedTuple):
    ok: bool
    worst_violation: float


class IncrementBound(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


def _locate(F: _Facets, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the rows of X: the first piece whose simplex holds each row (-1
    off the hull), its normalized barycentric weights clipped at zero, and
    the tent value they give.

    Sums run term by term (as ``geometry.row_dot`` does), so a row gets
    the same bits alone or in a batch.
    """
    g, n = X.shape
    P, k1 = F.verts.shape
    Y = F.shift + X[:, :1] * F.lin[0]
    for j in range(1, n):
        Y = Y + X[:, j : j + 1] * F.lin[j]
    W = Y[:, : P * k1].reshape(g, P, k1)
    inside = (W + F.slack).min(axis=2) >= 0.0
    if Y.shape[1] > P * k1:
        R = Y[:, P * k1 :]
        inside &= (row_dot(R, R) <= _FEAS_TOL**2)[:, None]
    piece = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    w = np.maximum(W[np.arange(g), piece], 0.0)
    lev = F.levels[piece]
    total, value = w[:, 0], w[:, 0] * lev[:, 0]
    for i in range(1, k1):
        total = total + w[:, i]
        value = value + w[:, i] * lev[:, i]
    # sum(w_i level_i) / sum(w_i), the value at the normalized weights
    return piece, w / total[:, None], np.where(piece >= 0, value / total, -np.inf)


def psi_eval(x, t: TentSpec) -> PsiValue:
    """Exact tent value from the facet planes.

    x is in [A,B] when it lies on the affine hull and in the simplex of some
    piece, both to 1e-9; the first such piece gives the hull coordinates,
    the value (so lam = (psi - s) / (r - s)) and a global supergradient.
    Off the hull the value is -inf, with no coordinates and no slope.
    """
    x = as_point(x, t.dim)
    F = t.facets
    piece, w, value = _locate(F, x[None, :])
    j = int(piece[0])
    if j < 0:
        return PsiValue(-np.inf, None, None)
    full = np.zeros(len(t.levels))
    full[F.verts[j]] = w[0]
    mA = t.A.num_vertices
    return PsiValue(
        float(value[0]), HullCoords(full[:mA], full[mA:]), F.slope[j].copy()
    )


def psi_value(x, t: TentSpec) -> float:
    return psi_eval(x, t).value


def _grid_rows(dim: int, pts) -> np.ndarray:
    """``pts`` as rows of ``dim`` coordinates, refused unless finite."""
    pts = np.asarray(pts, dtype=float).reshape(-1, dim)
    if not np.all(np.isfinite(pts)):
        raise ValueError("grid points must be finite")
    return pts


def psi_on_grid(t: TentSpec, pts: np.ndarray) -> np.ndarray:
    """Tent values on the rows of ``pts``, batched; each equals ``psi_eval``."""
    pts = _grid_rows(t.dim, pts)
    out = np.empty(len(pts))
    rows = max(1, _CHUNK // t.facets.shift.size)
    for i in range(0, len(pts), rows):
        out[i : i + rows] = _locate(t.facets, pts[i : i + rows])[2]
    return out


def psi_supergradient(x, t: TentSpec) -> np.ndarray:
    """Exact supergradient of the tent at a hull point: the gradient of a
    facet plane through (x, psi(x)).

    Valid globally: the plane majorizes the tent, so
    <p, z - x> >= psi(z) - psi(x) for every z in the hull.
    """
    v = psi_eval(x, t)
    if v.slope is None:
        raise ValueError("tent is -inf at x; no supergradient exists")
    return v.slope


def eps_superdiff_check_psi(p, x, eps: float, t: TentSpec, grid) -> SuperdiffCheck:
    """Grid check of p being an eps-supergradient of the tent at x.

    worst_violation is max over finite-tent grid points z of
    (psi(z) - psi(x) - <p, z - x>) - eps; ok means it stays below
    ``DEFAULT_CHECK_TOL``.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    x = as_point(x, t.dim)
    p = as_point(p, t.dim)
    vx = psi_eval(x, t).value
    if not np.isfinite(vx):
        raise ValueError("tent is -inf at x")
    pts = np.asarray(grid, dtype=float)
    vals = psi_on_grid(t, pts)
    finite = np.isfinite(vals)
    if not finite.any():
        return SuperdiffCheck(True, float("-inf"))
    gains = vals[finite] - vx - (pts[finite] - x) @ p
    worst = float(np.max(gains) - eps)
    return SuperdiffCheck(worst <= DEFAULT_CHECK_TOL, worst)


def tent_increment_bound_check(
    p, x0, eps: float, t: TentSpec, tol_check: float = DEFAULT_CHECK_TOL
) -> IncrementBound:
    """Check the increment bound satisfied by eps-supergradients of the tent:

        inf_A p - inf_B p  <=  (r - s) + (r - s) / (psi(x0) - s) * eps.

    Only meaningful for p known to be an eps-supergradient at x0; the
    formula is evaluated verbatim in both orderings of r and s.
    """
    x0 = as_point(x0, t.dim)
    p = as_point(p, t.dim)
    v0 = psi_eval(x0, t).value
    if not np.isfinite(v0):
        raise ValueError("tent is -inf at x0")
    if abs(v0 - t.s) < 1e-10:
        raise ValueError("psi(x0) equals the level s; bound undefined")
    lhs = inf_linear(p, t.A) - inf_linear(p, t.B)
    rhs = (t.r - t.s) + (t.r - t.s) / (v0 - t.s) * eps
    return IncrementBound(lhs <= rhs + tol_check, float(lhs), float(rhs))
