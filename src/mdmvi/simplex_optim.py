"""Frank-Wolfe with away steps over the joint vertex simplex, golden-section
line maxima, and a dense two-phase simplex LP solver.

All are fully deterministic.  The pipeline uses none of them: the tent
and the smoothing are closed forms, tested against ``solve_lp`` and
``maximize_concave``, and each infimum estimate is a grid minimum.
Bland's rule guarantees simplex termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import HullCoords

_PIVOT_TOL = 1e-11
_RC_TOL = 1e-9


class UnboundedLPError(RuntimeError):
    """The LP is unbounded; cannot occur for simplex-constrained problems."""


@dataclass(frozen=True, eq=False)
class LPProblem:
    """max objective @ x subject to eq_matrix @ x = eq_rhs, x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.eq_matrix, dtype=float)
        b = np.asarray(self.eq_rhs, dtype=float)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("bad LP shapes")
        if a.shape != (b.size, c.size):
            raise ValueError("inconsistent LP shapes")
        for arr in (c, a, b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("LP data must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)


@dataclass(frozen=True, eq=False)
class LPResult:
    status: str  # "optimal" or "infeasible"
    x: Optional[np.ndarray]
    value: Optional[float]
    dual: Optional[np.ndarray]  # row multipliers of the original system


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]


def _iterate(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Bland-rule pivoting on a max tableau; bottom row holds reduced costs."""
    for _ in range(50_000):
        rc = T[-1, :ncols]
        entering = np.nonzero(rc > _RC_TOL)[0]
        if entering.size == 0:
            return "optimal"
        j = int(entering[0])
        col = T[:-1, j]
        rows = np.nonzero(col > _PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[:-1, -1][rows] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + 1e-12]
        r = int(min(ties, key=lambda i: basis[i]))
        _pivot(T, r, j)
        basis[r] = j
    raise RuntimeError("simplex iteration cap exceeded")


def solve_lp(lp: LPProblem, feas_tol: float = 1e-9) -> LPResult:
    """Two-phase dense simplex with Bland's rule.

    Returns an optimal basic solution with the corresponding dual row
    multipliers, or an infeasible flag.  Unboundedness is a hard error.
    """
    A0 = lp.eq_matrix
    c = lp.objective
    A = A0.copy()
    b = lp.eq_rhs.copy()
    m, n = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: drive sum of artificials to zero
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[-1, :n] = A.sum(axis=0)
    T[-1, -1] = b.sum()
    basis = list(range(n, n + m))
    _iterate(T, basis, n)  # artificials never re-enter: restrict to x-columns
    if T[-1, -1] > feas_tol:
        return LPResult("infeasible", None, None, None)

    row_index = list(range(m))  # original row of each remaining tableau row
    r = 0
    while r < len(row_index):
        if basis[r] >= n:
            pivots = np.nonzero(np.abs(T[r, :n]) > 1e-9)[0]
            if pivots.size:
                _pivot(T, r, int(pivots[0]))
                basis[r] = int(pivots[0])
            else:  # redundant constraint
                T = np.delete(T, r, axis=0)
                del basis[r]
                del row_index[r]
                continue
        r += 1

    # phase 2 on original columns only
    rows = len(basis)
    T2 = np.zeros((rows + 1, n + 1))
    T2[:rows, :n] = T[:rows, :n]
    T2[:rows, -1] = T[:rows, -1]
    cB = c[basis]
    T2[-1, :n] = c - cB @ T2[:rows, :n]
    T2[-1, -1] = -float(cB @ T2[:rows, -1])
    status = _iterate(T2, basis, n)
    if status == "unbounded":
        raise UnboundedLPError("LP is unbounded")

    x = np.zeros(n)
    x[basis] = np.clip(T2[:rows, -1], 0.0, None)
    value = float(c @ x)

    dual = np.zeros(m)
    B = A0[row_index][:, basis]
    y, *_ = np.linalg.lstsq(B.T, c[basis], rcond=None)
    dual[row_index] = y
    return LPResult("optimal", x, value, dual)


def golden_max(
    fun: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-11,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Exact-style line maximum of a concave 1-D restriction.

    Golden-section narrowing plus an endpoint comparison, so linear
    objectives resolve to an exact endpoint.  Returns (argmax, value).
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    candidates = [(0.5 * (a + b), fun(0.5 * (a + b))), (lo, fun(lo)), (hi, fun(hi))]
    best = candidates[0]
    for t, v in candidates[1:]:
        if v > best[1]:
            best = (t, v)
    return float(best[0]), float(best[1])


@dataclass(frozen=True, eq=False)
class ConcaveObjective:
    """Concave objective over hull coordinates with a supergradient oracle.

    ``line_max(w, d, t_max)`` may supply the exact maximizer of the 1-D
    restriction t -> value(w + t d); when absent, golden-section search on
    the restriction is used (the restriction of a concave function is
    concave, hence unimodal).
    """

    value: Callable[[HullCoords], float]
    supergrad: Callable[[HullCoords], np.ndarray]
    line_max: Optional[Callable[[np.ndarray, np.ndarray, float], float]] = None


@dataclass(frozen=True, eq=False)
class FWResult:
    coords: HullCoords
    value: float
    gap: float  # last linearized duality gap
    upper_bound: float  # best certified upper bound min(value + gap)
    iterations: int
    converged: bool


def maximize_concave(
    obj: ConcaveObjective,
    dims: tuple[int, int],
    tol: float = 1e-8,
    max_iters: int = 10_000,
    init: np.ndarray | None = None,
) -> FWResult:
    """Frank-Wolfe with away steps over {w >= 0, sum w = 1}.

    Deterministic given its inputs; stops when the linearized duality gap
    drops to tol or the iteration budget runs out.  The gap upper-bounds
    the remaining suboptimality for any supergradient choice.
    """
    mA, mB = dims
    if mA < 1 or mB < 1:
        raise ValueError("need at least one vertex on each side")
    if not tol > 0:
        raise ValueError("tol must be positive")
    m = mA + mB

    if init is not None:
        w = np.clip(np.asarray(init, dtype=float), 0.0, None)
        if w.size != m or w.sum() <= 0:
            raise ValueError("bad warm start")
        w = w / w.sum()
    else:
        w = np.full(m, 1.0 / m)

    def split(wv: np.ndarray) -> HullCoords:
        return HullCoords(wv[:mA], wv[mA:])

    def value_at(wv: np.ndarray) -> float:
        v = obj.value(split(wv))
        if not np.isfinite(v):
            raise ValueError("objective returned a non-finite value")
        return float(v)

    val = value_at(w)
    upper = np.inf
    gap = np.inf
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        g = obj.supergrad(split(w))
        i_fw = int(np.argmax(g))
        gap = float(g[i_fw] - g @ w)
        upper = min(upper, val + max(gap, 0.0))
        if gap <= tol:
            converged = True
            break

        active = np.nonzero(w > 1e-12)[0]
        i_aw = int(active[np.argmin(g[active])])
        gap_aw = float(g @ w - g[i_aw])

        def try_step(direction: np.ndarray, t_max: float) -> tuple[float, float]:
            if t_max <= 0:
                return 0.0, val
            if obj.line_max is not None:
                t = float(np.clip(obj.line_max(w, direction, t_max), 0.0, t_max))
                return t, value_at(w + t * direction) if t > 0 else val
            t, v = golden_max(lambda s: value_at(w + s * direction), 0.0, t_max)
            return (t, v) if v > val else (0.0, val)

        use_away = gap_aw > gap and active.size > 1 and w[i_aw] < 1.0 - 1e-12
        if use_away:
            d = w.copy()
            d[i_aw] -= 1.0
            t_max = w[i_aw] / (1.0 - w[i_aw])
        else:
            d = -w.copy()
            d[i_fw] += 1.0
            t_max = 1.0
        t, new_val = try_step(d, t_max)
        if new_val <= val + 1e-15:
            # stalled along the preferred direction: try the other one
            if use_away:
                d = -w.copy()
                d[i_fw] += 1.0
                t, new_val = try_step(d, 1.0)
            if new_val <= val + 1e-15:
                break
        w = w + t * d
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        val = value_at(w)

    upper = min(upper, val + max(gap, 0.0)) if np.isfinite(gap) else upper
    return FWResult(
        coords=split(w),
        value=val,
        gap=gap,
        upper_bound=float(upper),
        iterations=it,
        converged=converged,
    )
