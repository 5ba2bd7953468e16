"""The concave tent over a pair of polytopes: the function whose hypograph
is the convex hull of A x (-inf, r] and B x (-inf, s].

On the joint hull [A,B] the tent is the upper envelope of the lifted
vertices (v_i, level_i), the lifting-map picture of a regular subdivision
(Gelfand, Kapranov & Zelevinsky 1994).  By LP duality it is the minimum of
finitely many affine pieces, one per upper-hull facet.  ``TentSpec`` builds
those pieces and every face of them once, in one table (``Faces``) that
the smoothing reads too, framed as the hull screen's faces are
(``geometry.face_frames``); a tent value, its hull coordinates and an
exact supergradient then come from one projection pass over the pieces
(``geometry.project``), with no LP.  The tent is -inf outside [A,B].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .geometry import (
    HullCoords,
    Polytope,
    _rows_last,
    affine_frame,
    as_point,
    coord_dot,
    face_frames,
    independent_subsets,
    inf_linear,
    project,
)

DEFAULT_CHECK_TOL = 1e-7
_FEAS_TOL = 1e-9  # hull membership: distance off the affine hull and simplex
_CHUNK = 1 << 16  # row-face entries of each batched projection pass


class Faces(NamedTuple):
    """Every face of the tent's kept simplices, once each, smallest first,
    laid out for a projection pass over rows: each per-face table has the
    face axis next to last and a trailing row axis of length 1, so that
    per-(face, row) arrays keep their rows innermost and contiguous, and a
    table indexed by one face per row, ``t[..., face, 0]``, has one column
    per row.  The kept simplices are the tail ``pieces``, in the order the
    subset search keeps them.

    Face j has the vertices ``verts[j]`` (padded with -1), the first its
    origin.  The rows perp[:, :, j] are an orthonormal basis of the
    complement of its direction space (zero rows pad it; a ``full`` face
    has none), and grad[:, j] is the gradient of the levels' interpolant,
    level[j] at the origin.  ``geometry.project`` reads ``lin``; ``tilt``
    is the change of the weights along grad, and a weight below ``floor``
    is more than 1e-9 outside the face.  ``slope`` is the plane gradient of the
    first kept simplex holding the face.  ``root`` is None: the
    smoothing's copy of the table holds sqrt(K^2 - ||grad||^2) there (NaN
    where ||grad|| >= K), and its slopes scaled into the K-ball.
    """

    verts: np.ndarray  # (F, k+1)
    origin: np.ndarray  # (n, F, 1)
    perp: np.ndarray  # (n, n, F, 1)
    grad: np.ndarray  # (n, F, 1)
    level: np.ndarray  # (F, 1)
    lin: np.ndarray  # (n, n + k+1 + 1, F, 1)
    tilt: np.ndarray  # (k+1, F, 1)
    floor: np.ndarray  # (k+1, F, 1)
    root: np.ndarray | None  # (F, 1) in the smoothing's table
    full: np.ndarray  # (F, 1)
    slope: np.ndarray  # (n, F, 1)
    V: np.ndarray  # (n, vertices, 1)
    levels: np.ndarray  # (vertices, 1)
    pieces: slice  # the kept simplices


def _faces(V: np.ndarray, levels: np.ndarray) -> Faces:
    """The tent's affine pieces, the upper-hull facets of the lifted
    vertices (v_i, level_i), and every face of them.

    In the affine hull of V (``geometry.affine_frame``) it fits the plane
    through every affinely independent (k+1)-subset S
    (``geometry.independent_subsets``) in one batched solve, and keeps S
    when its plane lies on or above every lifted vertex: those are exactly
    the dual-feasible bases of the tent LP.  Every kept plane majorizes the
    tent on [A,B] and meets it on conv(S), and the kept simplices cover
    [A,B].  Each face of them gets its frame, interpolant and barycentric
    map from ``geometry.face_frames``.
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
    kept, slopes = subsets[keep], p[keep] @ basis.T

    owner: dict[tuple, int] = {}  # face -> first kept simplex holding it
    for j, row in enumerate(kept):
        for size in range(1, k + 2):
            for face in combinations(sorted(row.tolist()), size):
                owner.setdefault(face, j)
    faces = sorted(owner, key=lambda f: (len(f), f))
    verts, perp, bary, grad = face_frames(V, levels, faces)
    return Faces(
        verts=verts,
        origin=_rows_last(V[verts[:, 0]]),
        perp=_rows_last(perp),
        grad=_rows_last(grad),
        level=_rows_last(levels[verts[:, 0]]),
        lin=_rows_last(np.concatenate([perp.transpose(0, 2, 1), bary, grad[:, :, None]], axis=2)),
        tilt=_rows_last(np.einsum("fi,fic->fc", grad, bary)),
        floor=_rows_last(-1e-9 * np.linalg.norm(bary, axis=1) - np.eye(k + 1)[0]),
        root=None,
        full=_rows_last((verts >= 0).sum(axis=1) > n),
        slope=_rows_last(slopes[[owner[f] for f in faces]]),
        V=_rows_last(V),
        levels=_rows_last(levels),
        pieces=slice(len(faces) - len(kept), None),
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
    faces: Faces = field(init=False, repr=False)

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
        object.__setattr__(self, "faces", _faces(V, levels))

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


def _locate(t: TentSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the rows of X: the face index of the first kept simplex that
    holds each row (-1 off the hull), the row's barycentric weights in it,
    clipped at zero and normalized (k+1, rows), and the tent value they
    give.  A kept simplex holds a row within 1e-9 of the hull's affine
    span whose weights in it are all above its ``floor``.  Sums run term
    by term, so a row gets the same bits alone or in a batch."""
    fc, n = t.faces, X.shape[1]
    Xt = np.ascontiguousarray(X.T)
    _, P = project(fc.origin[:, fc.pieces], fc.lin[:, :, fc.pieces], Xt)
    e, W = P[:n], P[n:-1]  # off the hull; the weights less the origin's 1
    inside = (W >= fc.floor[:, fc.pieces]).all(axis=0) & (coord_dot(e, e) <= _FEAS_TOL**2)
    held = inside.any(axis=0)
    piece = np.where(held, inside.argmax(axis=0), -1)
    w = W[:, piece, np.arange(len(X))]
    w[0] += 1.0
    w = np.maximum(w, 0.0)
    total = w.sum(axis=0)
    value = coord_dot(w, t.levels[fc.verts[fc.pieces][piece]].T)
    # sum(w_i level_i) / sum(w_i), the value at the normalized weights
    face = np.where(held, fc.pieces.start + piece, -1)
    return face, w / total, np.where(held, value / total, -np.inf)


def psi_eval(x, t: TentSpec) -> PsiValue:
    """Exact tent value from the facet planes.

    x is in [A,B] when it lies on the affine hull and in the simplex of some
    piece, both to 1e-9; the first such piece gives the hull coordinates,
    the value (so lam = (psi - s) / (r - s)) and a global supergradient.
    Off the hull the value is -inf, with no coordinates and no slope.
    """
    x = as_point(x, t.dim)
    face, w, value = _locate(t, x[None, :])
    j = int(face[0])
    if j < 0:
        return PsiValue(-np.inf, None, None)
    full = np.zeros(len(t.levels))
    full[t.faces.verts[j]] = w[:, 0]
    mA = t.A.num_vertices
    return PsiValue(
        float(value[0]), HullCoords(full[:mA], full[mA:]), t.faces.slope[:, j, 0].copy()
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
    rows = max(1, _CHUNK // len(t.faces.verts[t.faces.pieces]))
    for i in range(0, len(pts), rows):
        out[i : i + rows] = _locate(t, pts[i : i + rows])[2]
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
