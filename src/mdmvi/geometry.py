"""Vertex-represented polytopes, the joint hull of two of them, inflations,
distances, and linear-functional infima; with the primitives the search
and the checker share: the box grid's axes (``box_axes``), the direction
nets (``sphere_net``) and the term-by-term row sums (``row_dot`` over the
last axis, ``coord_dot`` over the first).  The tent, its smoothing and the
hull screen build their face tables alike, each face's frame by
``face_frames``, and read them by one projection pass (``project``).

Every operation is a pure function of its inputs; constructed objects are
treated as immutable, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


class DimensionMismatch(ValueError):
    """Raised when points or polytopes of different dimensions are mixed."""


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length;
    a 1-D float64 array comes back as itself."""
    same = type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1
    p = x if same else np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"a point must be one-dimensional, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


def as_rows(X, dim: int) -> np.ndarray:
    """Coerce to a finite (m, dim) float array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"points must be rows of a 2-D array, got shape {X.shape}")
    if X.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points have non-finite coordinates")
    return X


def rank_points(vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Indices of the finite entries of ``vals``, lowest value first, ties
    broken by lexicographic order of the points ``pts`` and then by index:
    a stable sort on the key (vals[i], tuple(pts[i])), so -0.0 ranks as 0.0."""
    idx = np.nonzero(np.isfinite(vals))[0]
    return idx[np.lexsort(np.vstack([pts[idx, ::-1].T, vals[idx]]))]


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of X.  Each is one BLAS dot, as
    ``np.linalg.norm`` takes for a single vector, so a row's norm has the
    same bits as that row's own ``np.linalg.norm``."""
    return np.sqrt(X[..., None, :] @ X[..., :, None])[..., 0, 0]


def row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<x, y> over the last axis, for each row x of X and the matching row
    y of Y (or one vector Y), summed term by term, so each row rounds as
    it does alone."""
    out = X[..., 0] * Y[..., 0]
    for j in range(1, X.shape[-1]):
        out += X[..., j] * Y[..., j]
    return out


def coord_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<x, y> over the first axis, for arrays laid out coordinates first
    and rows last, summed term by term as ``row_dot`` sums over the last
    axis, so each row rounds as it does alone; past the first axis, X and
    Y broadcast."""
    out = X[0] * Y[0]
    for j in range(1, len(X)):
        out += X[j] * Y[j]
    return out


def _rows_last(a: np.ndarray) -> np.ndarray:
    """A table with one entry (a face, a vertex) per index of its first
    axis, laid out (..., entries, 1): coordinates outer, and a trailing
    axis that broadcasts against rows."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1)[..., None])


def box_axes(lo: np.ndarray, hi: np.ndarray, resolution: int) -> tuple[list[np.ndarray], float]:
    """The axes of the box grid over [lo, hi], ``resolution`` points each,
    and its step, the largest spacing along them (0 when every axis is a
    point).  An axis whose span is at most 1e-12 holds its midpoint alone."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    axes = [
        np.array([0.5 * (a + b)]) if b - a <= 1e-12 else np.linspace(a, b, resolution)
        for a, b in zip(lo, hi)
    ]
    spans = hi - lo
    step = float(np.max(spans / (resolution - 1))) if np.any(spans > 1e-12) else 0.0
    return axes, step


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

    def to_json(self) -> list[list[float]]:
        return [[float(c) for c in row] for row in self.vertices]

    @classmethod
    def from_json(cls, data) -> "Polytope":
        return cls(np.asarray(data, dtype=float))


@dataclass(eq=False)
class HullCoords:
    """Weights (gamma over A's vertices, eta over B's) for a point of [A,B].

    The represented point is sum(gamma_i a_i) + sum(eta_j b_j); all weights
    are nonnegative and jointly sum to one (not checked on construction).
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


class DistResult(NamedTuple):
    d: float
    point: np.ndarray
    coords: HullCoords


def hull_vertex_matrix(A: Polytope, B: Polytope) -> np.ndarray:
    """Stacked vertex rows of A then B; [A,B] is their joint convex hull."""
    if A.dim != B.dim:
        raise DimensionMismatch("A and B must share a dimension")
    return np.vstack([A.vertices, B.vertices])


def sphere_net(n: int, count: int) -> np.ndarray:
    """Deterministic unit directions for n <= 3: both signs in 1-D,
    ``count`` equally spaced angles in 2-D, and ``count`` points of a
    Fibonacci spiral in 3-D."""
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


def _affine_min_norm(Q: np.ndarray) -> np.ndarray:
    """Weights, summing to one, of the least-norm point of the affine hull
    of the rows of Q, from the KKT system of that problem."""
    k = Q.shape[0]
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = Q @ Q.T
    kkt[k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        return np.linalg.solve(kkt, rhs)[:k]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]


def _min_norm_weights(P: np.ndarray) -> np.ndarray:
    """Wolfe's minimum-norm-point algorithm (Wolfe 1976): simplex weights
    w for which w @ P is the point of least norm in the hull of P's rows.

    A major cycle adds to the corral S the row minimizing <z, P_j> (lowest
    index on ties); minor cycles move z to the least-norm point of S's
    affine hull, stepping back into the simplex and dropping a row when
    its weight reaches zero.  Stops when no row beats ||z||^2 by 1e-14 of
    the largest squared row length, the norm stops falling, or S spans."""
    m, n = P.shape
    sq = np.einsum("ij,ij->i", P, P)
    tol = 1e-14 * float(sq.max())
    S = [int(np.argmin(sq))]
    lam = np.ones(1)
    zz = float(sq[S[0]])
    for _ in range(10 * m + 10):
        z = lam @ P[S]
        j = int(np.argmin(P @ z))
        if zz - float(P[j] @ z) <= tol or j in S:
            break
        S.append(j)
        lam = np.append(lam, 0.0)
        alpha = _affine_min_norm(P[S])
        while alpha.min() <= 0.0:
            down = alpha <= 0.0
            ratios = np.full(len(S), np.inf)
            ratios[down] = lam[down] / np.maximum(lam[down] - alpha[down], 1e-300)
            k = int(np.argmin(ratios))
            lam = lam + ratios[k] * (alpha - lam)
            lam[k] = 0.0
            S = [s for s, wt in zip(S, lam) if wt > 0.0]
            lam = lam[lam > 0.0]
            alpha = _affine_min_norm(P[S])
        lam = alpha
        z = lam @ P[S]
        if len(S) == n + 1 or float(z @ z) >= zz:
            break
        zz = float(z @ z)
    w = np.zeros(m)
    w[S] = lam / lam.sum()
    return w


def dist_to_hull(x, A: Polytope, B: Polytope) -> DistResult:
    """Euclidean distance from x to [A,B] with the nearest point and its
    hull coordinates, from one pass of Wolfe's algorithm on the rows of
    V - x (see ``_min_norm_weights``).

    Finite and exact to rounding: the nearest point y meets the optimality
    condition <y - x, v - y> >= 0 at every vertex v up to 1e-14 of the
    largest squared vertex distance.  When the final corral spans the
    space, x lies in the hull and gets d = 0 and y = x.
    """
    V = hull_vertex_matrix(A, B)
    x = as_point(x, V.shape[1])
    w = _min_norm_weights(V - x)
    coords = HullCoords(w[: A.num_vertices], w[A.num_vertices :])
    if np.count_nonzero(w) == V.shape[1] + 1:
        return DistResult(0.0, x.copy(), coords)
    y = w @ V
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


def affine_frame(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The affine hull of the rows of V: their centroid, the right singular
    vectors of V minus it, and the rank k.  The first k of those vectors
    span the hull's direction space, the rest its orthogonal complement."""
    center = V.mean(axis=0)
    _, sv, vt = np.linalg.svd(V - center)
    k = int(np.sum(sv > 1e-12 * max(1.0, float(sv[0]))))
    return center, vt, k


def independent_subsets(Vr: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The affinely independent ``size``-subsets of the rows of Vr, given
    in the coordinates of their affine hull, with their matrices
    [Vr[S], 1]; a subset is kept when the smallest singular value of its
    matrix exceeds 1e-10 of the largest.  For size k + 1 (k the rank of
    Vr) the kept simplices cover the hull of the rows."""
    subsets = np.array(list(combinations(range(len(Vr)), size)))
    M = np.concatenate([Vr[subsets], np.ones(subsets.shape + (1,))], axis=2)
    sing = np.linalg.svd(M, compute_uv=False)
    regular = sing[:, -1] > 1e-10 * sing[:, 0]
    return subsets[regular], M[regular]


def face_frames(
    V: np.ndarray, levels: np.ndarray, faces: list[tuple]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The frames of ``faces`` (vertex index tuples, in any order) of the
    vertex rows V at ``levels``, face axis first, as the tent and the hull
    screen read them: the vertex table (F, slots), the origin first and -1
    padding; perp (F, n, n), an orthonormal basis of the complement of
    each face's direction space (zero rows pad it); bary (F, n, slots),
    the map of x - origin to the change of the barycentric weights of x's
    projection onto the face's affine hull (zero in padded slots); and
    grad (F, n), the gradient of the levels' interpolant.  The weights
    come from the edge matrix E by one batched solve of E E^T against E
    per face size, the pseudo-inverse of E^T."""
    n, slots = V.shape[1], max(map(len, faces))
    sizes = np.array([len(f) for f in faces])
    verts = np.full((len(faces), slots), -1)
    perp = np.zeros((len(faces), n, n))
    grad = np.zeros((len(faces), n))
    bary = np.zeros((len(faces), n, slots))
    for m in range(1, slots + 1):
        sel = sizes == m
        idx = np.array([f for f in faces if len(f) == m])
        verts[sel, :m] = idx
        E = V[idx[:, 1:]] - V[idx[:, :1]]  # (F, m-1, n) edge vectors
        if m > 1:
            pinv = np.linalg.solve(E @ E.transpose(0, 2, 1), E)  # pinv(E^T)
            perp[sel, m - 1 :] = np.linalg.svd(E)[2][:, m - 1 :]
        else:
            pinv, perp[sel] = E, np.eye(n)
        grad[sel] = np.einsum("fi,fin->fn", levels[idx[:, 1:]] - levels[idx[:, :1]], pinv)
        bary[sel, :, 0] = -pinv.sum(axis=1)
        bary[sel, :, 1:m] = pinv.transpose(0, 2, 1)
    return verts, perp, bary, grad


def project(origin: np.ndarray, lin: np.ndarray, Xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns x of Xt (n, g) against a face table laid out rows last
    (``_rows_last``), with origins ``origin`` (n, F, 1) and linear maps
    ``lin`` (n, c, F, 1): D = x - origin (n, F, g) and P = sum_i D_i lin_i
    (c, F, g).  The sum runs term by term over the coordinates
    (``coord_dot``), so a row gets the same bits alone or in a batch."""
    D = Xt[:, None, :] - origin
    return D, coord_dot(D[:, None], lin)


_SCREEN_MARGIN = 1e-12  # per unit of coordinate scale, far above rounding
_SCREEN_CHUNK = 1 << 16  # entries of each batched face projection
_FACET_TOL = 1e-9  # per unit of the frame's scale; loose, so no facet is missed


def _facet_planes(Vr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Supporting planes of the full-dimensional hull of the rows of Vr
    (k = Vr.shape[1] >= 1 coordinates): normals n, offsets b with
    Vr @ n <= b, and the mask of the vertices on each.

    Every plane through k affinely independent rows that has all rows on
    one side, within 1e-9 of the frame's scale, is kept, on each side that
    holds them all.  Each facet of the hull is such a plane, so no facet is
    missed; a plane the tolerance keeps beside them only shrinks the region
    the planes bound.  Planes are not merged by the vertices on them: near
    a boundary whose vertices are coplanar within the tolerance but not
    exactly, several planes hold the same vertices, and only one of them
    need be the facet."""
    k = Vr.shape[1]
    _, M = independent_subsets(Vr, k)
    null = np.linalg.svd(M)[2][:, -1]  # [n, -b] of the plane through each subset
    n, b = null[:, :k], -null[:, k]
    length = np.linalg.norm(n, axis=1)
    n, b = n / length[:, None], b / length
    s = Vr @ n.T - b
    tol = _FACET_TOL * (1.0 + float(np.abs(Vr).max()))
    below, above, on = (s <= tol).all(axis=0), (s >= -tol).all(axis=0), np.abs(s) <= tol
    masks = np.vstack([on[:, below].T, on[:, above].T])
    return np.vstack([n[below], -n[above]]), np.concatenate([b[below], -b[above]]), masks


@dataclass(frozen=True, eq=False)
class Hull:
    """The joint hull [A,B], built once per vertex set, that screens and
    grids its inflations (the radius is an argument).

    The screen's two-sided bounds on the distance to [A,B] decide most
    rows of a batch without a projection.  Once per hull, in the frame of
    its affine hull (dimension k), it finds the facet planes
    (``_facet_planes``) and builds, by ``face_frames`` as the tent does,
    the table of its boundary faces: the affinely independent subsets of
    at most k distinct vertices ``V`` on one facet plane, single vertices
    included (where k = 0, the one vertex).  A row whose projection y onto
    the affine hull meets every facet inequality lies over the hull, and
    y is its nearest point; any other row x gets the nearest y of the hull
    points that its barycentric weights in the boundary faces give,
    clipped at zero and renormalized (``_nearest``).

    Neither bound rests on the accuracy of those weights.  Clipped and
    renormalized, any weights give a hull point y, so ||x - y|| bounds
    d(x, [A,B]) from above, and the support function bounds it from below
    in any direction u = (x - y) / ||x - y||, by <u, x> - max_v <u, v>.
    The weights make the bounds tight: the nearest point of the hull is
    the projection or lies inside a boundary face, whose weights reproduce
    it.  A margin of 1e-12 per unit of coordinate scale separates the rows
    the bounds settle from the band left to the exact projection; a row
    that weights further off leave unsettled falls in the band.

    The table is laid out rows last, as the tent's (``tent.Faces``), so
    the projection's elementwise loops run over contiguous rows; a padded
    slot of ``points`` holds V's last vertex (index -1) at weight 0.
    """

    A: Polytope
    B: Polytope
    V: np.ndarray = field(init=False, repr=False)  # distinct vertices, first seen first
    center: np.ndarray = field(init=False, repr=False)  # a point of the affine hull
    basis: np.ndarray = field(init=False, repr=False)  # (k, n) orthonormal rows spanning it
    normals: np.ndarray = field(init=False, repr=False)  # (facets, n) outward facet normals
    offsets: np.ndarray = field(init=False, repr=False)  # inside: normals @ y <= offsets
    faces: np.ndarray = field(init=False, repr=False)  # (F, s = max(k, 1)) vertex indices, -1 pads
    points: np.ndarray = field(init=False, repr=False)  # (s, n, F, 1) their vertices
    lin: np.ndarray = field(init=False, repr=False)  # (n, s, F, 1) x - points[0] to the weights
    scale: float = field(init=False, repr=False)  # 1 + the largest vertex coordinate

    def __post_init__(self):
        V = hull_vertex_matrix(self.A, self.B)
        V = V[np.sort(np.unique(V, axis=0, return_index=True)[1])]
        center, vt, k = affine_frame(V)
        basis = vt[:k]
        Vr = (V - center) @ basis.T
        normals, offsets, on = np.zeros((0, V.shape[1])), np.zeros(0), np.zeros((0, len(V)), bool)
        if k:
            frame_normals, frame_offsets, on = _facet_planes(Vr)
            normals = frame_normals @ basis
            offsets = frame_offsets + normals @ center
        subsets = {(i,) for i in np.flatnonzero(on.any(axis=0)).tolist()} or {(0,)}
        for mask in on:
            idx = np.flatnonzero(mask)
            for size in range(2, min(k, len(idx)) + 1):
                subsets.update(map(tuple, idx[independent_subsets(Vr[idx], size)[0]].tolist()))
        subsets = sorted(subsets, key=lambda f: (len(f), f))
        faces, _, bary, _ = face_frames(V, np.zeros(len(V)), subsets)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "points", _rows_last(V[faces]))
        object.__setattr__(self, "lin", _rows_last(bary))
        object.__setattr__(self, "scale", 1.0 + float(np.abs(V).max()))

    def _nearest(self, X: np.ndarray) -> np.ndarray:
        """The nearest, for each row, of the hull points that its weights in
        the boundary faces give, clipped at zero and renormalized: one
        ``project`` pass, then the points and their squared distances by
        ``coord_dot``, on (coordinates, faces, rows) arrays."""
        Xt = np.ascontiguousarray(X.T)  # (n, rows)
        W = project(self.points[0], self.lin, Xt)[1]  # (s, F, rows), less the origin's 1
        W[0] += 1.0
        np.maximum(W, 0.0, out=W)
        W /= W.sum(axis=0)
        Y = coord_dot(W[:, None], self.points)  # (n, F, rows)
        D = Xt[:, None] - Y
        best = coord_dot(D, D).argmin(axis=0)
        return Y[:, best, np.arange(len(X))].T

    def _bounds(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds on d(x, [A,B]) for the rows x of X.  Every
        sum runs term by term (``row_dot``, ``coord_dot``), so no bound
        takes its bits from numpy's or the BLAS library's summation order."""
        n, k = X.shape[1], len(self.basis)
        Y = X.copy() if k == n else self.center + ((X - self.center) @ self.basis.T) @ self.basis
        out = np.flatnonzero((self.normals @ Y.T > self.offsets[:, None]).any(axis=0))
        rows = max(1, _SCREEN_CHUNK // (len(self.faces) * (n + 1)))
        for i in range(0, len(out), rows):
            Y[out[i : i + rows]] = self._nearest(X[out[i : i + rows]])
        diff = X - Y
        upper = np.sqrt(row_dot(diff, diff))
        u = diff / np.where(upper > 0.0, upper, 1.0)[:, None]
        support = coord_dot(self.V.T[:, :, None], u.T[:, None, :]).max(axis=0)
        lower = row_dot(u, X) - support
        return np.maximum(lower, 0.0), upper

    def within(self, X, radius: float) -> np.ndarray:
        """Whether d(x, [A,B]) <= radius for each row x of X.  The bounds
        settle the rows clear of the radius, where they can be more exact
        than ``dist_to_hull``, which decides the band; a band row equal to
        a vertex of the hull is at distance exactly 0 and needs neither.
        A one-vertex hull decides its band by each row's ``row_norms``
        distance to the vertex, the bits of ``dist_to_hull`` there: its
        weights are [1, 0, ...], so its nearest point is the vertex."""
        X = as_rows(X, self.V.shape[1])
        lower, upper = self._bounds(X)
        margin = _SCREEN_MARGIN * (self.scale + np.abs(X).max(axis=1))
        inside = upper <= radius - margin
        band = ~inside & (lower <= radius + margin)
        if len(self.V) == 1:
            inside[band] = row_norms(X[band] - self.V[0]) <= radius
            return inside
        for i in np.flatnonzero(band):
            if radius >= 0 and (X[i] == self.V).all(axis=1).any():
                inside[i] = True
            else:
                inside[i] = dist_to_hull(X[i], self.A, self.B).d <= radius
        return inside

    def grid(self, delta: float, resolution: int) -> np.ndarray:
        """Deterministic axis-aligned grid covering the delta-inflated hull.

        Grid points farther than delta plus one grid step from [A,B] are
        dropped, decided exactly by ``within``; all vertices of A and B are
        appended.  Identical inputs give identical output arrays.
        """
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        V = hull_vertex_matrix(self.A, self.B)
        axes, step = box_axes(V.min(axis=0) - delta, V.max(axis=0) + delta, resolution)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        pts = pts[self.within(pts, delta + step + 1e-12)]

        extra = V[~(pts[None] == V[:, None]).all(axis=2).any(axis=1)]
        if len(extra):
            pts = np.vstack([pts, extra])
        return pts


def sample_set(A: Polytope, B: Polytope, delta: float, resolution: int) -> np.ndarray:
    """``Hull(A, B).grid(delta, resolution)``."""
    return Hull(A, B).grid(delta, resolution)
