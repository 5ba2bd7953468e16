"""The rows-first smoothing kernel and hull-screen projection that the
rows-last ones in ``mdmvi.supconv._kernel`` and ``mdmvi.geometry.Hull``
replaced, kept as the reference those are tested against, bit for bit.

They lay each per-(row, face) array out as (rows, faces, coordinates),
with the short coordinate axis innermost, and sum over it with
``row_dot`` and ``np.einsum``.  They read the tables that ``SupConvSpec``
and ``Hull`` build, copied back to that layout, C-contiguous as they were
built (``rows_first_faces``, ``rows_first_hull_faces``); a transposition
moves no bit.
"""

from types import SimpleNamespace

import numpy as np

from mdmvi.geometry import Hull, row_dot
from mdmvi.supconv import _GAP_EXACT, SupConvSpec, _least_supergradient, _Rows


def _rows_first(table: np.ndarray) -> np.ndarray:
    """A rows-last table (..., entries, 1) as (entries, ...), C-contiguous."""
    return np.ascontiguousarray(np.moveaxis(table[..., 0], -1, 0))


def rows_first_faces(sc: SupConvSpec) -> SimpleNamespace:
    """``sc.faces`` with one row per face: origin (F, n), perp (F, n, n),
    grad (F, n), level (F,), lin (F, n, n + k+1 + 1), tilt and floor
    (F, k+1), root (F,), full (F,) and slope (F, n)."""
    names = ("origin", "perp", "grad", "level", "lin", "tilt", "floor", "root", "full", "slope")
    return SimpleNamespace(**{name: _rows_first(getattr(sc.faces, name)) for name in names})


def reference_dual_value(P: np.ndarray, X: np.ndarray, sc: SupConvSpec) -> np.ndarray:
    V = sc.tent.V
    lift = sc.tent.levels - P[:, :1] * V[:, 0]
    for j in range(1, V.shape[1]):
        lift -= P[:, j : j + 1] * V[:, j]
    return row_dot(P, X) + lift.max(axis=1)


def reference_clip(P: np.ndarray, K: float) -> np.ndarray:
    return P * (K / np.maximum(np.sqrt(row_dot(P, P)), K))[:, None]


def reference_kernel(sc: SupConvSpec, X: np.ndarray) -> _Rows:
    fc, K = rows_first_faces(sc), sc.K
    g, n = X.shape
    D = X[:, None, :] - fc.origin  # (g, F, n)
    P = D[:, :, :1] * fc.lin[:, 0]
    for i in range(1, n):
        P += D[:, :, i : i + 1] * fc.lin[:, i]
    e = P[:, :, :n]  # coordinates off the face
    h = np.sqrt(row_dot(e, e))
    tau = h / fc.root  # y* = x0 + tau grad
    W = P[:, :, n:-1] + tau[:, :, None] * fc.tilt  # weights of y*, less e0
    ok = (W >= fc.floor).all(axis=2)  # false where root is NaN
    val = np.where(ok, fc.level + P[:, :, -1] - h * fc.root, -np.inf)

    rows = np.arange(g)
    face = val.argmax(axis=1)
    value, e, h, tau = val[rows, face], e[rows, face], h[rows, face], tau[rows, face]
    U, grad = fc.perp[face], fc.grad[face]
    r = e[:, :1] * U[:, 0]  # x - x0, in the complement to rounding
    for j in range(1, n):
        r += e[:, j : j + 1] * U[:, j]
    y = fc.origin[face] + (D[rows, face] - r) + tau[:, None] * grad

    away = h > 0.0
    cone = grad - (fc.root[face] / np.where(away, h, 1.0))[:, None] * r
    upper = np.minimum(
        np.where(away, reference_dual_value(reference_clip(cone, K), X, sc), np.inf),
        reference_dual_value(fc.slope[face], X, sc),
    )
    for i in np.nonzero(upper - value > _GAP_EXACT)[0]:
        p = _least_supergradient(sc, X[i], value[i]).T
        upper[i : i + 1] = np.minimum(
            upper[i : i + 1], reference_dual_value(p, X[i : i + 1], sc)
        )
    Y = np.where(fc.full[face][:, None], X, y)  # x itself where y* = x exactly
    return _Rows(value, Y, np.maximum(upper - value, 0.0))


def rows_first_hull_faces(hull: Hull) -> tuple[np.ndarray, list]:
    """``hull.corners`` as (corners, n) and ``hull.faces`` as (origin (p, n),
    pinv of the edges (p, n, size-1), vertices (p, size, n)) per size."""
    faces = [tuple(map(_rows_first, face)) for face in hull.faces]
    return _rows_first(hull.corners), faces


def reference_nearest(hull: Hull, X: np.ndarray) -> np.ndarray:
    corners, faces = rows_first_hull_faces(hull)
    cands = [np.broadcast_to(corners, (len(X),) + corners.shape)]
    for origin, pinv, verts in faces:
        T = np.einsum("rpn,pnk->rpk", X[:, None, :] - origin, pinv)
        W = np.concatenate([1.0 - T.sum(axis=2, keepdims=True), T], axis=2)
        W = np.maximum(W, 0.0)
        W /= W.sum(axis=2, keepdims=True)
        cands.append(np.einsum("rpj,pjn->rpn", W, verts))
    Y = np.concatenate(cands, axis=1)
    D = X[:, None, :] - Y
    best = np.einsum("rpn,rpn->rp", D, D).argmin(axis=1)
    return Y[np.arange(len(X)), best]
