"""Sup-convolution of the tent with a norm cone: the K-Lipschitz concave
smoothing phi_K(x) = max over y in [A,B] of psi(y) - K ||x - y||, the
Pasch-Hausdorff envelope of the tent (Rockafellar & Wets 1998, ch. 9).

The tent is affine on each simplex it stores, so the maximizer lies in the
relative interior of a face F of one, in closed form: with x0 the
projection of x onto aff(F), h = ||x - x0|| and g the gradient of the
levels' interpolant l in F, when ||g|| < K it is

    y* = x0 + g h / sqrt(K^2 - ||g||^2),  value l(x0) - h sqrt(K^2 - ||g||^2).

Every y* with nonnegative weights in F is a candidate and a lower bound;
the largest is phi_K(x), certified by the conic dual bound
<p, x> + max_i (level_i - <p, v_i>) >= phi_K(x), valid for ||p|| <= K and
tight at the cone gradient at y*, or at the facet slope where y* = x.
Supergradients come from the attaining point (cone formula) with a
finite-difference fallback, both verified a posteriori on a grid.

The kernel reads the tent's face table (``tent.Faces``), to which
``SupConvSpec`` adds the two columns that depend on K, through the
projection pass the tent and the hull screen share (``geometry.project``);
the boundary dual tries only that table's faces as its active sets
(``_least_supergradient``).  It runs on (coordinates, faces, rows)
arrays, so each elementwise numpy loop runs over a contiguous axis of
rows; every sum over the coordinates is taken term by term, in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import as_point, coord_dot, project, row_dot, row_norms
from .tent import _CHUNK, Faces, TentSpec, _grid_rows, eps_superdiff_check_psi, psi_on_grid

GAP_TOL = 1e-8  # the smoothing's duality-gap tolerance, as certificates record it
_GAP_RAISE = max(100.0 * GAP_TOL, 1e-4)  # a larger certified gap is refused
SEP_TOL = 1e-6  # nearer than this to z*, a finite difference gives the supergradient
FD_STEP = 1e-5
SUPER_TOL = 1e-4  # the supergradient's grid check
LEVEL_MARGIN = 1e-9  # strict level-set inequalities are decided generously
_GAP_EXACT = 1e-12  # certified gaps above this try one more dual


class PhiEvalError(RuntimeError):
    """The value could not be certified to the requested gap."""


class SupergradientError(RuntimeError):
    """The candidate supergradient failed the grid inequality (kink at x)."""


class NoAttainingPointError(RuntimeError):
    """No grid point nearly attains the sup-convolution value."""


@dataclass(frozen=True, eq=False)
class SupConvSpec:
    """Tent plus the Lipschitz constant K > 0 of the smoothing cone."""

    tent: TentSpec
    K: float
    faces: Faces = field(init=False, repr=False)  # the tent's, with root and clipped slopes

    def __post_init__(self):
        if not (np.isfinite(self.K) and self.K > 0):
            raise ValueError("K must be positive and finite")
        K, fc = float(self.K), self.tent.faces
        gnorm = np.sqrt(coord_dot(fc.grad, fc.grad))
        root = np.sqrt(np.where(gnorm < K, K * K - gnorm * gnorm, np.nan))
        object.__setattr__(self, "faces", fc._replace(root=root, slope=_clip(fc.slope, K)))

    @property
    def dim(self) -> int:
        return self.tent.dim


@dataclass(frozen=True, eq=False)
class PhiValue:
    """Certified evaluation: value, an attaining point, and the certified
    optimality gap (upper bound slack)."""

    value: float
    argmax: np.ndarray
    gap: float


class Supergradient(NamedTuple):
    p: np.ndarray
    mode: str  # "cone-formula" or "fallback"


class _Rows(NamedTuple):
    """The smoothing on rows: value, attaining point and certified gap."""

    value: np.ndarray
    argmax: np.ndarray
    gap: np.ndarray


def _dual_value(P: np.ndarray, X: np.ndarray, sc: SupConvSpec) -> np.ndarray:
    """Upper bounds on phi_K at the columns of X (n, g), one per column of
    P; each is valid when that column has norm at most K."""
    V = sc.faces.V
    lift = sc.faces.levels - P[0] * V[0]  # (vertices, g)
    for j in range(1, len(V)):
        lift -= P[j] * V[j]
    return coord_dot(P, X) + lift.max(axis=0)


def _clip(P: np.ndarray, K: float) -> np.ndarray:
    """The columns of P (n, ...) scaled into the ball of radius K."""
    return P * (K / np.maximum(np.sqrt(coord_dot(P, P)), K))


def _kernel(sc: SupConvSpec, X: np.ndarray) -> _Rows:
    """Every face's candidate for every row of X, and the best of them,
    certified.  It opens with the face table's projection pass (``project``)
    and runs on (coordinates, faces, rows) arrays, rows innermost; each sum
    runs term by term over the coordinates (``geometry.coord_dot``), so a
    row gets the same bits alone or in a batch."""
    fc, K = sc.faces, sc.K
    g, n = X.shape
    Xt = np.ascontiguousarray(X.T)  # (n, g)
    D, P = project(fc.origin, fc.lin, Xt)  # (n, F, g), (n + k+1 + 1, F, g)
    e = P[:n]  # coordinates off the face
    h = np.sqrt(coord_dot(e, e))
    tau = h / fc.root  # y* = x0 + tau grad
    W = P[n:-1] + tau * fc.tilt  # weights of y*, less e0
    ok = (W >= fc.floor).all(axis=0)  # false where root is NaN
    val = np.where(ok, fc.level + P[-1] - h * fc.root, -np.inf)

    rows = np.arange(g)
    face = val.argmax(axis=0)
    value, e, h, tau = val[face, rows], e[:, face, rows], h[face, rows], tau[face, rows]
    U, grad = fc.perp[:, :, face, 0], fc.grad[:, face, 0]
    r = e[0] * U[0]  # x - x0, in the complement to rounding
    for j in range(1, n):
        r += e[j] * U[j]
    y = fc.origin[:, face, 0] + (D[:, face, rows] - r) + tau * grad

    # duals: the cone gradient at y*, -K (x - y*) / ||x - y*||, which is
    # grad - root (x - x0) / h, read from the residual without the
    # cancellation in x - y*; and the facet slope, exact where y* = x
    away = h > 0.0
    cone = grad - (fc.root[face, 0] / np.where(away, h, 1.0)) * r
    upper = np.minimum(
        np.where(away, _dual_value(_clip(cone, K), Xt, sc), np.inf),
        _dual_value(fc.slope[:, face, 0], Xt, sc),
    )
    # on the boundary of the hull, where y* = x and the facet slope is
    # steeper than K, the exact dual is a supergradient with a normal part
    for i in np.nonzero(upper - value > _GAP_EXACT)[0]:
        p = _least_supergradient(sc, X[i], value[i])
        upper[i : i + 1] = np.minimum(upper[i : i + 1], _dual_value(p, Xt[:, i : i + 1], sc))
    Y = np.where(fc.full[face, 0], Xt, y)  # x itself where y* = x exactly
    return _Rows(value, np.ascontiguousarray(Y.T), np.maximum(upper - value, 0.0))


def _least_supergradient(sc: SupConvSpec, x: np.ndarray, value: float) -> np.ndarray:
    """The least-norm p with value + <p, v_i - x> >= level_i at every
    vertex (to a relative 1e-9), clipped to norm K, as the one column
    (n, 1) that ``_dual_value`` reads.  Where value = psi(x) that is the
    least-norm supergradient of the tent at x, an exact dual whenever
    phi_K(x) = psi(x).

    It is the least-norm solution of some active set, and the faces of at
    most n vertices of the tent's simplices (``sc.faces``, in (size,
    lexicographic) order) hold one.  By KKT p = sum_j lam_j (v_j - x),
    lam_j >= 0, over the active j; their lifted vertices lie on the plane
    z -> value + <p, z - x>, and every lifted vertex on or below it, so
    they span a face of an upper facet.  By Caratheodory some of them with
    v_j - x linearly independent carry p, and those, affinely independent
    in the facet, make a face of a kept simplex."""
    A, b = sc.tent.V - x, sc.tent.levels - value
    slack = 1e-9 * (1.0 + np.abs(b).max() + np.linalg.norm(A, axis=1).max())
    verts, sizes = sc.faces.verts, (sc.faces.verts >= 0).sum(axis=1)
    P = [np.zeros((1, len(x)))]
    for size in range(1, min(len(x), verts.shape[1]) + 1):
        J = verts[sizes == size, :size]
        P.append((np.linalg.pinv(A[J]) @ b[J][..., None])[..., 0])
    P = np.vstack(P)  # the first row, 0, is the fallback when none is feasible
    norms = np.where((P @ A.T >= b - slack).all(axis=1), np.linalg.norm(P, axis=1), np.inf)
    return _clip(P[np.argmin(norms)][:, None], sc.K)


def _kernel_rows(sc: SupConvSpec, X: np.ndarray) -> _Rows:
    """The kernel on the rows of X in chunks of at most ``_CHUNK`` row-face
    entries.  A row whose certified gap exceeds ``_GAP_RAISE`` is refused:
    its value is NaN."""
    rows = max(1, _CHUNK // len(sc.faces.level))
    parts = [_kernel(sc, X[i : i + rows]) for i in range(0, max(len(X), 1), rows)]
    out = parts[0] if len(parts) == 1 else _Rows(*map(np.concatenate, zip(*parts)))
    return out._replace(value=np.where(out.gap > _GAP_RAISE, np.nan, out.value))


def _evaluate(sc: SupConvSpec, X: np.ndarray) -> _Rows:
    """The kernel on the rows of X; raises PhiEvalError at the first row
    that it refuses."""
    out = _kernel_rows(sc, X)
    bad = np.isnan(out.value)
    if bad.any():
        i = int(bad.argmax())
        raise PhiEvalError(f"could not certify value at {X[i].tolist()}: gap {out.gap[i]:.3e}")
    return out


def phi_eval(x, sc: SupConvSpec) -> PhiValue:
    """Evaluate the smoothing at x with a certified optimality gap.

    One row of the face-enumeration kernel (see the module docstring):
    the best candidate over every face of the tent's simplices gives the
    value and the attaining point, and the conic dual bound at the cone
    gradient there, or at the facet plane's slope where the point is x
    itself, certifies the gap.  Raises PhiEvalError when the certified
    gap is above 1e-4.
    """
    out = _evaluate(sc, as_point(x, sc.dim)[None, :])
    return PhiValue(float(out.value[0]), out.argmax[0], float(out.gap[0]))


def phi_value(x, sc: SupConvSpec) -> float:
    return phi_eval(x, sc).value


def phi_on_grid(sc: SupConvSpec, pts: np.ndarray) -> np.ndarray:
    """The smoothing on the rows of ``pts``, batched; each value equals
    ``phi_eval``'s, bit for bit."""
    return _evaluate(sc, _grid_rows(sc.dim, pts)).value


def phi_rows(sc: SupConvSpec, pts: np.ndarray) -> np.ndarray:
    """The smoothing on the rows of ``pts`` as ``phi_on_grid`` gives it,
    but NaN, not PhiEvalError, on each row whose certified gap is above
    1e-4: the caller raises (``phi_eval`` there) if it reads that row."""
    return _kernel_rows(sc, _grid_rows(sc.dim, pts)).value


def _fd_stencils(Y: np.ndarray) -> np.ndarray:
    """Each row y of Y with its central difference stencil y + FD_STEP e_i,
    y - FD_STEP e_i: an (m, 2 dim + 1, dim) array."""
    steps = FD_STEP * np.eye(Y.shape[1])
    return np.concatenate([Y[:, None], Y[:, None] + steps, Y[:, None] - steps], axis=1)


def phi_supergradient(
    x, sc: SupConvSpec, grid: np.ndarray, grid_phi: np.ndarray | None = None
) -> Supergradient:
    """A supergradient of the smoothing at x, verified on a grid.

    Away from the attaining point the cone formula -K (x - z*) / ||x - z*||
    is exact: the cone minorant touches the smoothing from below at x, so
    its gradient is the only possible supergradient.  Within ``SEP_TOL`` of
    the attaining point a centered finite difference is used instead.
    Either is accepted only if the superdifferential inequality holds to
    ``SUPER_TOL`` on the verification grid, whose smoothing values
    ``grid_phi`` (one per grid row) are computed when the caller does not
    already have them.  x and its difference stencil are evaluated in one
    batch, each with the bits it gets alone.
    """
    x = as_point(x, sc.dim)
    pts = _check_grid_phi(grid, grid_phi)
    out = _evaluate(sc, _fd_stencils(x[None, :])[0])
    vals = phi_on_grid(sc, pts) if grid_phi is None else grid_phi
    sg = _checked_supergradients(sc, x[None, :], out, pts, vals)
    mode = "fallback" if sg.fallback[0] else "cone-formula"
    if not sg.ok[0]:
        raise SupergradientError(
            f"supergradient check failed at {x.tolist()} (mode {mode}, "
            f"violation {sg.worst[0]:.3e}); perturb x away from the kink"
        )
    return Supergradient(sg.p[0], mode)


class Supergradients(NamedTuple):
    """``phi_supergradient`` at the rows of Y before the first refused one,
    as arrays: row i's p, and whether its grid check accepts it."""

    p: np.ndarray  # (refused, dim)
    ok: np.ndarray  # (refused,) the grid check's largest violation is <= SUPER_TOL
    fallback: np.ndarray  # (refused,) p is the finite difference's
    worst: np.ndarray  # (refused,) the grid check's largest violation
    refused: int  # the first row whose smoothing is refused; len(Y) if none


def phi_supergradients(
    Y, sc: SupConvSpec, grid: np.ndarray, grid_phi: np.ndarray | None = None
) -> Supergradients:
    """``phi_supergradient`` at every row of Y up to the first whose
    difference stencil the kernel refuses, from one kernel batch of every
    row and its stencil and one grid check of them all.

    Each p has the bits ``phi_supergradient`` gives it.  No row is refused
    here: the caller raises (``phi_supergradient`` at that row does) when
    it reads row ``refused``, and the rows past it are neither checked nor
    returned.  The grid's smoothing values are computed only when some
    row is checked and ``grid_phi`` is None.
    """
    Y = _grid_rows(sc.dim, Y)
    pts = _check_grid_phi(grid, grid_phi)
    S = _fd_stencils(Y)
    out = _kernel_rows(sc, S.reshape(-1, sc.dim))
    k = S.shape[1]
    bad = np.isnan(out.value).reshape(len(Y), k).any(axis=1)
    refused = int(bad.argmax()) if bad.any() else len(Y)
    vals = phi_on_grid(sc, pts) if grid_phi is None and refused else grid_phi
    head = _Rows(*(a[: refused * k] for a in out))
    return _checked_supergradients(sc, Y[:refused], head, pts, vals)._replace(refused=refused)


def _check_grid_phi(grid, grid_phi) -> np.ndarray:
    """The grid as a float array; ValueError unless ``grid_phi`` is None or
    holds one value per grid row."""
    pts = np.asarray(grid, dtype=float)
    if grid_phi is not None and np.shape(grid_phi) != (len(pts),):
        raise ValueError(
            f"grid_phi has shape {np.shape(grid_phi)}, not one value per grid row ({len(pts)},)"
        )
    return pts


def _checked_supergradients(
    sc: SupConvSpec, Y: np.ndarray, out: _Rows, pts: np.ndarray, vals: np.ndarray
) -> Supergradients:
    """The supergradient at each row y of Y from the kernel's rows of y's
    difference stencil (``_fd_stencils``, the stencils one after another
    in ``out``), and the largest violation of its superdifferential
    inequality on the grid ``pts``, whose smoothing values are ``vals``
    (see ``phi_supergradient``).  The check is one matrix product, in row
    blocks of at most ``_CHUNK`` entries:

        worst = max over the grid of (vals - <p, pts>) - value + <p, y>.
    """
    n, k = sc.dim, 2 * sc.dim + 1
    V = out.value.reshape(-1, k)
    value, Z = V[:, 0], out.argmax[::k]
    sep = row_norms(Y - Z)
    P = (V[:, 1 : n + 1] - V[:, n + 1 :]) / (2 * FD_STEP)
    cone = sep > SEP_TOL
    P[cone] = -sc.K * (Y[cone] - Z[cone]) / sep[cone, None]

    yp, worst = row_dot(Y, P), np.empty(len(P))
    rows = max(1, _CHUNK // max(len(pts), 1))
    for i in range(0, len(P), rows):
        b = slice(i, i + rows)
        worst[b] = (vals - P[b] @ pts.T).max(axis=1) - value[b] + yp[b]
    return Supergradients(P, ~(worst > SUPER_TOL), ~cone, worst, len(Y))


def superdiff_transfer_check(p, x, sc: SupConvSpec, eps: float, grid) -> bool:
    """Check that a supergradient of the smoothing at x is an
    eps-supergradient of the tent at a point y nearly attaining the
    sup-convolution there (within eps).

    Raises NoAttainingPointError when neither the optimizer's attaining
    point nor any grid point reaches the value within eps.
    """
    x = as_point(x, sc.dim)
    p = as_point(p, sc.dim)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    v = phi_eval(x, sc)
    pts = np.asarray(grid, dtype=float)
    scores = psi_on_grid(sc.tent, pts) - sc.K * np.linalg.norm(pts - x, axis=1)
    best = int(np.argmax(scores))
    if not scores[best] >= v.value - eps:
        raise NoAttainingPointError(
            f"no grid point attains the value within {eps} "
            f"(best shortfall {v.value - scores[best]:.3e})"
        )
    return eps_superdiff_check_psi(p, pts[best], eps, sc.tent, pts).ok


class LevelSets(NamedTuple):
    """The level-set test at ybar over a hull grid, for any threshold c:

        U_c = {z : score(z) > phi_bar - c}
        V_c = {z : level_dist(z) < c}

    score is psi(z) - K ||z - ybar|| and level_dist is |s_anchor - psi(z)|;
    points off the hull score -inf and lie at distance +inf.  Both strict
    inequalities carry ``LEVEL_MARGIN``, so membership is decided
    generously and a reported disjointness is conservative.  A grid point
    z lies in both sets exactly when

        c > max(phi_bar - score(z), level_dist(z)) - LEVEL_MARGIN,

    so the sets are disjoint exactly for c up to ``threshold``, the least
    right-hand side over the grid (+inf when no point is on the hull).
    """

    threshold: float

    def disjoint(self, c: float) -> bool:
        return bool(c <= self.threshold)


def level_sets(
    ybar, sc: SupConvSpec, s_anchor: float, pts: np.ndarray, psis: np.ndarray
) -> LevelSets:
    """Score the grid points ``pts``, whose tent values are ``psis``, once
    for every threshold of the level-set test at ybar."""
    ybar = as_point(ybar, sc.dim)
    phi_bar = phi_eval(ybar, sc).value
    finite = np.isfinite(psis)
    score = np.where(
        finite, psis - sc.K * np.linalg.norm(pts - ybar, axis=1), -np.inf
    )
    level_dist = np.where(finite, np.abs(s_anchor - psis), np.inf)
    meet = np.maximum(phi_bar - score, level_dist)
    return LevelSets(float(np.min(meet, initial=np.inf)) - LEVEL_MARGIN)


def uv_disjoint(ybar, c: float, sc: SupConvSpec, s_anchor: float, grid) -> bool:
    """Grid test that the near-attainment set at ybar and the tent level
    set near s_anchor do not meet (see ``LevelSets``):

        U = {z in [A,B] : psi(z) - K ||z - ybar|| > phi_K(ybar) - c}
        V = {z in [A,B] : |s_anchor - psi(z)| < c}
    """
    if not c > 0:
        raise ValueError("c must be positive")
    pts = np.asarray(grid, dtype=float)
    psis = psi_on_grid(sc.tent, pts)
    return level_sets(ybar, sc, s_anchor, pts, psis).disjoint(c)


def sample_table(sc: SupConvSpec, pts: np.ndarray) -> np.ndarray:
    """Rows of (coordinates..., phi, psi) for plotting dumps."""
    pts = np.asarray(pts, dtype=float)
    psis = psi_on_grid(sc.tent, pts)
    phis = phi_on_grid(sc, pts)
    return np.column_stack([pts, phis, psis])
