"""The rows-first smoothing kernel that the rows-last one in
``mdmvi.supconv._kernel`` replaced, and the boundary dual that tries
every active set of at most n vertices, which ``_least_supergradient``
replaced by the faces of the tent's simplices: kept as the references
those are tested against, bit for bit.

The kernel lays each per-(row, face) array out as (rows, faces,
coordinates), with the short coordinate axis innermost, and sums over it
with ``row_dot``.  It reads the table that ``SupConvSpec`` builds, copied
back to that layout, C-contiguous as it was built (``rows_first_faces``);
a transposition moves no bit.
"""

from itertools import combinations
from types import SimpleNamespace

import numpy as np

from mdmvi.geometry import row_dot
from mdmvi.supconv import _GAP_EXACT, SupConvSpec, _clip, _Rows


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
        p = reference_least_supergradient(sc, X[i], value[i]).T
        upper[i : i + 1] = np.minimum(
            upper[i : i + 1], reference_dual_value(p, X[i : i + 1], sc)
        )
    Y = np.where(fc.full[face][:, None], X, y)  # x itself where y* = x exactly
    return _Rows(value, Y, np.maximum(upper - value, 0.0))


def reference_least_supergradient(sc: SupConvSpec, x: np.ndarray, value: float) -> np.ndarray:
    """The least-norm p with value + <p, v_i - x> >= level_i at every
    vertex (to a relative 1e-9), clipped to norm K, as one column (n, 1):
    the least-norm solution of every set of at most n active constraints
    among all the vertices is tried, in the order ``combinations`` gives."""
    A, b = sc.tent.V - x, sc.tent.levels - value
    slack = 1e-9 * (1.0 + np.abs(b).max() + np.linalg.norm(A, axis=1).max())
    P = [np.zeros((1, len(x)))]
    for size in range(1, min(len(x), len(A)) + 1):
        J = list(combinations(range(len(A)), size))
        P.append((np.linalg.pinv(A[J]) @ b[J][..., None])[..., 0])
    P = np.vstack(P)  # the first row, 0, is the fallback when none is feasible
    norms = np.where((P @ A.T >= b - slack).all(axis=1), np.linalg.norm(P, axis=1), np.inf)
    return _clip(P[np.argmin(norms)][:, None], sc.K)
