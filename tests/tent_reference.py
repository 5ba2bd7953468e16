"""The tent's own table of affine pieces and its point location, which
``mdmvi.tent`` replaced by the one face table it shares with the smoothing
(``tent.Faces``), kept as the reference the tent is tested against.

Here each piece's barycentric weights come from the inverse of its
simplex's matrix in the frame of the affine hull, one affine map
``x @ lin + shift`` gives the weights of x in every piece and its residual
off the affine hull, and a weight above ``-slack`` puts x within 1e-9 of
that facet of the simplex.  The first piece that holds x gives its value.
"""

from typing import NamedTuple

import numpy as np

from mdmvi.geometry import affine_frame, independent_subsets, row_dot

FEAS_TOL = 1e-9


class Facets(NamedTuple):
    verts: np.ndarray  # (P, k+1) vertex indices
    levels: np.ndarray  # (P, k+1) their levels
    slope: np.ndarray  # (P, n)
    slack: np.ndarray  # (P, k+1)
    lin: np.ndarray  # (n, P*(k+1) + n - k)
    shift: np.ndarray  # (P*(k+1) + n - k,)


def reference_facets(V: np.ndarray, levels: np.ndarray) -> Facets:
    """The upper-hull facets of the lifted vertices (v_i, level_i), with
    the affine map to every piece's weights and the residual."""
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
    bary = np.linalg.inv(M[keep].transpose(0, 2, 1))
    G = (bary[:, :, :k] @ basis.T).reshape(-1, n)
    h = bary[:, :, k].ravel() - G @ center
    perp = vt[k:]
    return Facets(
        verts=subsets[keep],
        levels=levels[subsets[keep]],
        slope=p[keep] @ basis.T,
        slack=FEAS_TOL * np.linalg.norm(G, axis=1).reshape(-1, k + 1),
        lin=np.vstack([G, perp]).T,
        shift=np.concatenate([h, -perp @ center]),
    )


def reference_locate(F: Facets, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the rows of X: the first piece holding each row (-1 off the
    hull), its normalized weights clipped at zero (rows, k+1), and the
    tent value they give."""
    g, n = X.shape
    P, k1 = F.verts.shape
    Y = F.shift + X[:, :1] * F.lin[0]
    for j in range(1, n):
        Y = Y + X[:, j : j + 1] * F.lin[j]
    W = Y[:, : P * k1].reshape(g, P, k1)
    inside = (W + F.slack).min(axis=2) >= 0.0
    if Y.shape[1] > P * k1:
        R = Y[:, P * k1 :]
        inside &= (row_dot(R, R) <= FEAS_TOL**2)[:, None]
    piece = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    w = np.maximum(W[np.arange(g), piece], 0.0)
    lev = F.levels[piece]
    total, value = w[:, 0], w[:, 0] * lev[:, 0]
    for i in range(1, k1):
        total = total + w[:, i]
        value = value + w[:, i] * lev[:, i]
    return piece, w / total[:, None], np.where(piece >= 0, value / total, -np.inf)
