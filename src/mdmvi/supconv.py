"""Sup-convolution of the tent with a norm cone: the K-Lipschitz concave
smoothing phi_K(x) = sup over y of psi(y) - K ||x - y||.

Where the slope of the tent's facet plane at x has norm at most K, the
smoothing is the tent; elsewhere evaluation maximizes over hull
decompositions with Frank-Wolfe plus exact candidate refinement.  Both
are certified through the conic dual bound

    phi_K(x) <= <p, x> + max_i (level_i - <p, v_i>)   for any ||p|| <= K,

which is tight at an optimal dual p.  Supergradients come from the
attaining point (cone formula) with a finite-difference fallback on the
attaining set, both verified a posteriori on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import HullCoords, as_point, dist_to_hull, hull_diameter, sample_set
from .simplex_optim import ConcaveObjective, golden_max, maximize_concave
from .tent import TentSpec, psi_eval, psi_on_grid

DEFAULT_SEP_TOL = 1e-6
DEFAULT_FD_STEP = 1e-5
DEFAULT_SUPER_TOL = 1e-4
_GAP_RAISE = 1e-4


class PhiEvalError(RuntimeError):
    """The optimizer could not certify the value to the requested gap."""


class SupergradientError(RuntimeError):
    """The candidate supergradient failed the grid inequality (kink at x)."""


class NoAttainingPointError(RuntimeError):
    """No grid point nearly attains the sup-convolution value."""


@dataclass(frozen=True, eq=False)
class SupConvSpec:
    """Tent plus the Lipschitz constant K > 0 of the smoothing cone."""

    tent: TentSpec
    K: float

    def __post_init__(self):
        if not (np.isfinite(self.K) and self.K > 0):
            raise ValueError("K must be positive and finite")
        object.__setattr__(self, "_cache", {})

    @property
    def dim(self) -> int:
        return self.tent.dim


@dataclass(frozen=True, eq=False)
class PhiValue:
    """Certified evaluation: value, an attaining point with its hull
    coordinates, and the certified optimality gap (upper bound slack)."""

    value: float
    argmax: np.ndarray
    coords: HullCoords
    gap: float


class Supergradient(NamedTuple):
    p: np.ndarray
    mode: str  # "cone-formula" or "fallback"


def _objective(x: np.ndarray, sc: SupConvSpec) -> ConcaveObjective:
    V = sc.tent.vertex_matrix()
    levels = sc.tent.vertex_levels()
    K = sc.K

    def value(c: HullCoords) -> float:
        w = c.weights()
        return float(levels @ w - K * np.linalg.norm(x - w @ V))

    def supergrad(c: HullCoords) -> np.ndarray:
        w = c.weights()
        diff = x - w @ V
        nrm = np.linalg.norm(diff)
        if nrm < 1e-14:
            return levels.copy()
        return levels + K * (V @ diff) / nrm

    def line_max(w: np.ndarray, d: np.ndarray, t_max: float) -> float:
        # h(t) = levels @ w + t levels @ d - K ||e - t q||, solved exactly
        e = x - w @ V
        q = d @ V
        beta = float(levels @ d)
        a = float(q @ q)
        b = -2.0 * float(e @ q)
        cc = float(e @ e)

        def h(t: float) -> float:
            return beta * t - K * np.sqrt(max(a * t * t + b * t + cc, 0.0))

        # stationary points solve a squared quadratic; near-degenerate
        # discriminants (double roots) are common because vertex levels
        # repeat, so candidates are collected generously and judged by
        # exact evaluation below
        cands = [0.0, t_max]

        def add(tt: float) -> None:
            if -1e-12 <= tt <= t_max + 1e-12:
                cands.append(float(np.clip(tt, 0.0, t_max)))

        if a > 1e-18:
            add(-b / (2.0 * a))  # kink where the norm term can vanish
            lead = 4.0 * a * (beta * beta - K * K * a)
            if abs(lead) > 1e-18:
                mid = 4.0 * b * (beta * beta - K * K * a)
                last = 4.0 * beta * beta * cc - K * K * b * b
                add(-mid / (2.0 * lead))  # covers double roots exactly
                disc = mid * mid - 4.0 * lead * last
                if disc > 0.0:
                    root = np.sqrt(disc)
                    add((-mid + root) / (2 * lead))
                    add((-mid - root) / (2 * lead))
        best_t, best_v = 0.0, h(0.0)
        for tt in cands[1:]:
            v = h(tt)
            if v > best_v:
                best_t, best_v = tt, v
        return best_t

    return ConcaveObjective(value=value, supergrad=supergrad, line_max=line_max)


def _dual_value(p: np.ndarray, x: np.ndarray, sc: SupConvSpec) -> float:
    """Upper bound on phi_K(x) valid for any p with ||p|| <= K."""
    V = sc.tent.vertex_matrix()
    levels = sc.tent.vertex_levels()
    return float(p @ x + np.max(levels - V @ p))


def _clip_to_ball(p: np.ndarray, K: float) -> np.ndarray:
    nrm = np.linalg.norm(p)
    return p if nrm <= K else p * (K / nrm)


def _cone_score(psi: float, y: np.ndarray, x: np.ndarray, sc: SupConvSpec) -> float:
    """psi(y) - K ||x - y|| for the tent value ``psi`` at y."""
    if not np.isfinite(psi):
        return -np.inf
    return psi - sc.K * float(np.linalg.norm(x - y))


def _score(y: np.ndarray, x: np.ndarray, sc: SupConvSpec) -> float:
    return _cone_score(psi_eval(y, sc.tent).value, y, x, sc)


def phi_eval(x, sc: SupConvSpec, tol: float = 1e-8, warm: np.ndarray | None = None,
             refine: bool = True) -> PhiValue:
    """Evaluate the smoothing at x with a certified optimality gap.

    The tent at x comes first: when x lies in [A,B] and the slope p of the
    facet plane through (x, psi(x)) has norm at most K, the conic dual
    bound at p equals psi(x), because that plane majorizes every lifted
    vertex and meets the tent at x; so phi_K(x) = psi(x), attained at x.
    Elsewhere (exterior points, slopes steeper than K) Frank-Wolfe over
    hull weights does the bulk of the maximization; exact tent values at
    the attaining point, at x and at the vertices refine it from below,
    while conic dual candidates bound it from above.  The vertices' tent
    values come from the tent itself, read once per tent.  Raises
    PhiEvalError when the certified gap stays above the acceptance
    threshold.
    """
    x = as_point(x, sc.dim)
    key = (x.tobytes(), float(tol))
    cached = sc._cache.get(key)
    if cached is not None:
        return cached

    # the cone dual certificate is second-order loose in the attaining
    # point, so gaps slightly above tol are normal at converged solves;
    # 1e-7 stays well under every downstream tolerance (1e-6 and up)
    accept = max(10.0 * tol, 1e-7)
    t = sc.tent
    px = psi_eval(x, t)
    if px.slope is not None and np.linalg.norm(px.slope) <= sc.K:
        gap = _dual_value(px.slope, x, sc) - px.value
        if gap <= accept:
            out = PhiValue(px.value, x.copy(), px.coords, max(gap, 0.0))
            sc._cache[key] = out
            return out

    V = t.vertex_matrix()
    mA = t.A.num_vertices
    fw = maximize_concave(
        _objective(x, sc), (mA, V.shape[0] - mA), tol=tol, max_iters=400, init=warm
    )
    upper = fw.upper_bound

    # candidates: the Frank-Wolfe point, the vertices (whose tent values
    # the tent holds) and x itself
    y_fw = fw.coords.weights() @ V
    cands = [(y_fw, _score(y_fw, x, sc))]
    cands.extend(
        (v, _cone_score(pv, v, x, sc)) for v, pv in zip(V, t.vertex_values())
    )
    if np.isfinite(px.value):
        cands.append((x, _cone_score(px.value, x, x, sc)))

    best_y = None
    best_v = -np.inf
    for y, v in cands:
        if v > best_v:
            best_v, best_y = v, y

    duals = [np.zeros(sc.dim)]
    sep = float(np.linalg.norm(x - best_y))
    if sep > 1e-9:
        duals.append(-sc.K * (x - best_y) / sep)
    if px.slope is not None:
        duals.append(_clip_to_ball(px.slope, sc.K))
    for p in duals:
        upper = min(upper, _dual_value(p, x, sc))

    if refine and upper - best_v > accept:
        # kink-adjacent exterior points attain at the hull projection
        proj = dist_to_hull(x, t.A, t.B)
        if proj.d > 1e-12:
            v_proj = _score(proj.point, x, sc)
            if v_proj > best_v:
                best_v, best_y = v_proj, proj.point
            upper = min(
                upper, _dual_value(-sc.K * (x - proj.point) / proj.d, x, sc)
            )
    if refine and upper - best_v > accept:
        # segment sweeps toward every vertex, with exact tent values
        for _ in range(2):
            improved = False
            for target in V:
                d = target - best_y
                if np.linalg.norm(d) < 1e-14:
                    continue
                tt, vv = golden_max(
                    lambda s: _score(best_y + s * d, x, sc), 0.0, 1.0, xtol=1e-11
                )
                if vv > best_v + 1e-15:
                    best_v, best_y = vv, best_y + tt * d
                    improved = True
            sep = float(np.linalg.norm(x - best_y))
            if sep > 1e-9:
                upper = min(upper, _dual_value(-sc.K * (x - best_y) / sep, x, sc))
            if not improved or upper - best_v <= accept:
                break

    gap = max(upper - best_v, 0.0)
    if gap > max(100.0 * tol, _GAP_RAISE):
        raise PhiEvalError(
            f"could not certify value at {x.tolist()}: gap {gap:.3e} "
            f"after {fw.iterations} iterations"
        )
    out = PhiValue(
        value=float(best_v),
        argmax=np.asarray(best_y, dtype=float),
        coords=psi_eval(best_y, t).coords,
        gap=float(gap),
    )
    sc._cache[key] = out
    return out


def phi_value(x, sc: SupConvSpec) -> float:
    return phi_eval(x, sc).value


def phi_on_grid(sc: SupConvSpec, pts: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Evaluate on many points, warm-starting each solve from its neighbor."""
    pts = np.asarray(pts, dtype=float)
    vals = np.empty(len(pts))
    warm = None
    for i, z in enumerate(pts):
        pv = phi_eval(z, sc, tol=tol, warm=warm)
        vals[i] = pv.value
        warm = pv.coords.weights() if pv.coords is not None else None
    return vals


def default_check_grid(sc: SupConvSpec) -> np.ndarray:
    """Fallback verification grid: the hull inflated by a quarter diameter."""
    margin = 0.25 * hull_diameter(sc.tent.A, sc.tent.B) + 0.1
    res = {1: 81, 2: 15, 3: 7}.get(sc.dim, 7)
    return sample_set(sc.tent.A, sc.tent.B, margin, res)


def phi_supergradient(
    x,
    sc: SupConvSpec,
    grid: np.ndarray | None = None,
    tol_sep: float = DEFAULT_SEP_TOL,
    fd_step: float = DEFAULT_FD_STEP,
    tol_super: float = DEFAULT_SUPER_TOL,
    tol: float = 1e-8,
    grid_phi: np.ndarray | None = None,
) -> Supergradient:
    """A supergradient of the smoothing at x, verified on a grid.

    Away from the attaining point the cone formula -K (x - z*) / ||x - z*||
    is exact: the cone minorant touches the smoothing from below at x, so
    its gradient is the only possible supergradient.  On the attaining set
    a centered finite difference is used instead and accepted only if the
    superdifferential inequality holds on the verification grid, whose
    smoothing values ``grid_phi`` are computed when the caller does not
    already have them.  ``tol`` is the duality-gap tolerance of every
    smoothing evaluation.
    """
    x = as_point(x, sc.dim)
    v = phi_eval(x, sc, tol=tol)
    sep = float(np.linalg.norm(x - v.argmax))
    if sep > tol_sep:
        p = -sc.K * (x - v.argmax) / sep
        mode = "cone-formula"
    else:
        p = np.empty(sc.dim)
        for i in range(sc.dim):
            e = np.zeros(sc.dim)
            e[i] = fd_step
            p[i] = (
                phi_eval(x + e, sc, tol=tol).value - phi_eval(x - e, sc, tol=tol).value
            ) / (2 * fd_step)
        mode = "fallback"

    pts = default_check_grid(sc) if grid is None else np.asarray(grid, dtype=float)
    vals = phi_on_grid(sc, pts, tol=tol) if grid_phi is None else grid_phi
    worst = float(np.max(vals - v.value - (pts - x) @ p))
    if worst > tol_super:
        raise SupergradientError(
            f"supergradient check failed at {x.tolist()} (mode {mode}, "
            f"violation {worst:.3e}); perturb x away from the kink"
        )
    return Supergradient(p, mode)


def superdiff_transfer_check(p, x, sc: SupConvSpec, eps: float, grid) -> bool:
    """Check that a supergradient of the smoothing at x is an
    eps-supergradient of the tent at a point y nearly attaining the
    sup-convolution there (within eps).

    Raises NoAttainingPointError when neither the optimizer's attaining
    point nor any grid point reaches the value within eps.
    """
    from .tent import eps_superdiff_check_psi

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
    points off the hull score -inf and lie at distance +inf.
    """

    phi_bar: float
    score: np.ndarray
    level_dist: np.ndarray

    def disjoint(self, c: float, margin: float = 1e-9) -> bool:
        in_u = self.score > self.phi_bar - c - margin
        in_v = self.level_dist < c + margin
        return not bool(np.any(in_u & in_v))


def level_sets(
    ybar, sc: SupConvSpec, s_anchor: float, pts: np.ndarray, psis: np.ndarray,
    tol: float = 1e-8,
) -> LevelSets:
    """Score the grid points ``pts``, whose tent values are ``psis``, once
    for every threshold of the level-set test at ybar."""
    ybar = as_point(ybar, sc.dim)
    phi_bar = phi_eval(ybar, sc, tol=tol).value
    finite = np.isfinite(psis)
    score = np.where(
        finite, psis - sc.K * np.linalg.norm(pts - ybar, axis=1), -np.inf
    )
    level_dist = np.where(finite, np.abs(s_anchor - psis), np.inf)
    return LevelSets(phi_bar, score, level_dist)


def uv_disjoint(
    ybar, c: float, sc: SupConvSpec, s_anchor: float, grid, margin: float = 1e-9
) -> bool:
    """Grid test that the near-attainment set at ybar and the tent level
    set near s_anchor do not meet:

        U = {z in [A,B] : psi(z) - K ||z - ybar|| > phi_K(ybar) - c}
        V = {z in [A,B] : |s_anchor - psi(z)| < c}

    Strict inequalities carry a small margin so membership is decided
    generously; a reported disjointness is therefore conservative.
    """
    if not c > 0:
        raise ValueError("c must be positive")
    pts = np.asarray(grid, dtype=float)
    psis = psi_on_grid(sc.tent, pts)
    return level_sets(ybar, sc, s_anchor, pts, psis).disjoint(c, margin)


def sample_table(sc: SupConvSpec, pts: np.ndarray) -> np.ndarray:
    """Rows of (coordinates..., phi, psi) for plotting dumps."""
    pts = np.asarray(pts, dtype=float)
    psis = psi_on_grid(sc.tent, pts)
    phis = phi_on_grid(sc, pts)
    return np.column_stack([pts, phis, psis])
