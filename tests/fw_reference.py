"""The Frank-Wolfe smoothing evaluation that the face-enumeration kernel in
``mdmvi.supconv`` replaced, kept as the reference the kernel is tested
against.  Frank-Wolfe with away steps (``mdmvi.simplex_optim``) maximizes
psi(y) - K ||x - y|| over hull weights, with an exact line maximum; exact
tent values at the vertices, at x, at the hull projection and along
golden-section sweeps refine the lower bound, and conic dual candidates
bound the value from above.
"""

from typing import NamedTuple

import numpy as np

from mdmvi.geometry import HullCoords, as_point, dist_to_hull
from mdmvi.simplex_optim import ConcaveObjective, golden_max, maximize_concave
from mdmvi.supconv import SupConvSpec
from mdmvi.tent import psi_eval, psi_on_grid


class FWPhi(NamedTuple):
    value: float  # lower bound, attained at argmax
    argmax: np.ndarray
    upper: float  # conic dual upper bound


def _objective(x: np.ndarray, sc: SupConvSpec) -> ConcaveObjective:
    V = sc.tent.V
    levels = sc.tent.levels
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
    V = sc.tent.V
    levels = sc.tent.levels
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


def fw_phi_eval(x, sc: SupConvSpec, tol: float = 1e-8) -> FWPhi:
    """The smoothing at x as Frank-Wolfe computed it, with the tent's own
    dual first and exact refinement sweeps after: a lower bound ``value``,
    attained at ``argmax``, and a conic dual upper bound ``upper``.  Unlike
    the old evaluation it never raises, and it scores its point where the
    tent's coordinates put it; the caller judges the gap."""
    x = as_point(x, sc.dim)
    # the cone dual certificate is second-order loose in the attaining
    # point, so gaps slightly above tol are normal at converged solves;
    # 1e-7 stays well under every downstream tolerance (1e-6 and up)
    accept = max(10.0 * tol, 1e-7)
    t = sc.tent
    px = psi_eval(x, t)
    if px.slope is not None and np.linalg.norm(px.slope) <= sc.K:
        gap = _dual_value(px.slope, x, sc) - px.value
        if gap <= accept:
            return FWPhi(*_honest(x, x, sc), px.value + max(gap, 0.0))

    V = t.V
    mA = t.A.num_vertices
    fw = maximize_concave(
        _objective(x, sc), (mA, V.shape[0] - mA), tol=tol, max_iters=400
    )
    upper = fw.upper_bound

    # candidates: the Frank-Wolfe point, the vertices and x itself
    y_fw = fw.coords.weights() @ V
    cands = [(y_fw, _score(y_fw, x, sc))]
    cands.extend(
        (v, _cone_score(pv, v, x, sc)) for v, pv in zip(V, psi_on_grid(t, V))
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

    if upper - best_v > accept:
        # kink-adjacent exterior points attain at the hull projection
        proj = dist_to_hull(x, t.A, t.B)
        if proj.d > 1e-12:
            v_proj = _score(proj.point, x, sc)
            if v_proj > best_v:
                best_v, best_y = v_proj, proj.point
            upper = min(
                upper, _dual_value(-sc.K * (x - proj.point) / proj.d, x, sc)
            )
    if upper - best_v > accept:
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

    return FWPhi(*_honest(best_y, x, sc), float(upper))


def _honest(y: np.ndarray, x: np.ndarray, sc: SupConvSpec) -> tuple[float, np.ndarray]:
    """The tent's value at y, scored at the point its hull coordinates
    reproduce: the tent locates y to 1e-9 and clips the weights, which on
    a sliver simplex moves the point by up to about 1e-7, so scoring y
    itself can overstate the value."""
    pv = psi_eval(y, sc.tent)
    yc = pv.coords.weights() @ sc.tent.V
    return pv.value - sc.K * float(np.linalg.norm(x - yc)), yc
