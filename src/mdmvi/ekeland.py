"""Approximate minimization of g = f1 - phi_K with a verified domination
certificate, plus extraction of a nearly-cancelling subgradient pair.

The existential minimization step of Ekeland's principle is realized
constructively, at the one ``EKELAND_EPS``: compass search from the three
best grid points gives the point u, and an a-posteriori grid check of the
domination inequality g(z) + eps ||z - u|| >= g(u) confirms it.  Both read
g from one ``GTable`` of the grid, built once per pipeline run.  The
search evaluates g on one batch per round: the stencils of every live
start at four or more halving scales, as many as fill a budget of rows,
over which each start then replays its steps.  One pair search around u
then yields the fuzzy pair, from one smoothing batch for all its
perturbed points and one batch of f's subgradients for all its
candidates.  Both searches give what one row at a time would give, bit
for bit, and a smoothing value whose certified gap is refused fails them
only where they read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .functions import TestFunction, f_eval, f_subgrads, f_values
from .geometry import as_point, rank_points, row_norms
from .supconv import (
    SupConvSpec,
    phi_eval,
    phi_on_grid,
    phi_rows,
    phi_supergradient,
    phi_supergradients,
)

EVP_TOL = 1e-6  # the domination check's allowance
RESIDUAL_FACTOR = 10.0  # a pair's residual may reach this times the eps of u
EKELAND_EPS = 0.1  # the eps of Ekeland's principle for the point u
_ROUND_ROWS = 48  # the stencil rows a descent round fills with scales past its fourth


class DescentError(RuntimeError):
    """The restricted objective has an empty domain or the search stalled."""


class FuzzyPairError(RuntimeError):
    """No subgradient pair met the residual threshold near this point."""


@dataclass(frozen=True, eq=False)
class EkelandPoint:
    u: np.ndarray
    eps: float
    value: float  # f1(u) - phi_K(u)


@dataclass(frozen=True, eq=False)
class FuzzyPair:
    x: np.ndarray
    p: np.ndarray
    y: np.ndarray
    q: np.ndarray
    residual: float  # ||p + q||
    separation: float  # ||x - y||


def _g_eval(z: np.ndarray, f1: TestFunction, sc: SupConvSpec) -> float:
    fv = f_eval(f1, z)
    if not np.isfinite(fv):
        return np.inf
    return fv - phi_eval(z, sc).value


class GTable(NamedTuple):
    """f1, phi_K and g = f1 - phi_K on the points of a grid; g is +inf
    where f1 is +inf (outside its domain)."""

    pts: np.ndarray
    f1: np.ndarray
    phi: np.ndarray
    g: np.ndarray


def g_table(f1: TestFunction, sc: SupConvSpec, pts) -> GTable:
    """Evaluate f1 and the smoothing on all points at once."""
    pts = np.asarray(pts, dtype=float)
    fvals = f_values(f1, pts)
    phis = phi_on_grid(sc, pts)
    gvals = np.where(np.isfinite(fvals), fvals - phis, np.inf)
    return GTable(pts, fvals, phis, gvals)


def _row_keys(X: np.ndarray) -> list[bytes]:
    """The bytes of each row of X, as ``x.tobytes()`` gives them, read
    from one view of X's rows as single byte strings."""
    X = np.ascontiguousarray(X, dtype=float)
    return X.view(np.dtype((np.void, X.itemsize * X.shape[1])))[:, 0].tolist()


def _g_rows(Z: np.ndarray, memo: dict, f1: TestFunction, sc: SupConvSpec) -> np.ndarray:
    """g on the rows of Z.  Rows found in ``memo`` (point bytes -> g) are
    read from it; the others, each distinct row once, are evaluated in one
    batch and added to it.  g is NaN on a row whose smoothing is refused
    (see ``phi_rows``).  The keys are the rows' bytes (``_row_keys``)."""
    keys = _row_keys(Z)
    fresh = dict.fromkeys(k for k in keys if k not in memo)
    if fresh:
        F = np.frombuffer(b"".join(fresh), dtype=float).reshape(-1, Z.shape[1])
        vals = f_values(f1, F)
        ok = np.isfinite(vals)
        vals[~ok] = np.inf
        if ok.any():
            vals[ok] -= phi_rows(sc, F[ok])
        memo.update(zip(fresh, vals.tolist()))
    return np.array([memo[k] for k in keys])


def _round_scales(rows_per_scale: int) -> int:
    """How many halving scales a descent round evaluates, when each scale
    adds ``rows_per_scale`` stencil rows: four, or as many as fit in
    ``_ROUND_ROWS`` rows where that is more."""
    return max(4, _ROUND_ROWS // rows_per_scale)


def descend_g(
    table: GTable, f1: TestFunction, sc: SupConvSpec, delta: float, seed: int = 0
) -> EkelandPoint:
    """Near-minimizer of g = f1 - phi_K on C, at eps ``EKELAND_EPS``.

    Multistart compass search (Torczon 1997; Kolda, Lewis & Torczon 2003)
    from the three best points of ``table``, a grid of C inflated by
    ``delta``.  The directions are the coordinates and two seeded random
    unit vectors, with the repeats of 1-D dropped.  Each step moves a
    start to the best point of its stencil x +- h d, first on ties,
    doubling h, when that lowers g; otherwise it halves h.  h starts at
    span / 8 and a start stops below 1e-10 max(span, 1).

    A halving leaves x in place, so the next stencils are known: each
    round evaluates, for every live start, the stencils at h, h/2, h/4,
    ... (those not below the stop) in one batch (``f_values``, then
    ``phi_rows`` where f1 is finite), and no point, the table's included,
    is evaluated twice.  A round takes four scales, or more while the
    batch stays within ``_ROUND_ROWS`` rows (``_round_scales``): a round
    costs about the same whatever its rows, and in 1-D, where a scale
    adds two rows per start, the extra scales save a quarter of the
    rounds.  Each start then replays the steps over those scales, up to
    its first move; the scales past it are rows no step reads.  g on a
    row does not depend on the rest of its batch, so each start takes the
    path it would take alone.

    Only rows that a step reads can fail the run: g is NaN on a refused
    row, and the PhiEvalError is ``phi_eval``'s at the first refused row
    of the earliest step that reads one, the lowest start first on ties,
    as when the starts stepped together one scale per batch.
    Deterministic given the seed; ties between the starts' ends break by
    lexicographic point order.
    """
    grid, gvals = table.pts, table.g
    ranked = rank_points(gvals, grid)
    if not len(ranked):
        raise DescentError("f1 is identically +inf on C")
    seeds = ranked[:3]

    dim = grid.shape[1]
    rng = np.random.default_rng(seed)
    dirs = [np.eye(dim)[i] for i in range(dim)]
    for _ in range(2):
        d = rng.standard_normal(dim)
        nrm = np.linalg.norm(d)
        if nrm > 1e-12 and all(abs(d @ e) < nrm * (1 - 1e-12) for e in dirs):
            dirs.append(d / nrm)
    stencil = np.vstack([dirs, -np.array(dirs)])
    span = float(np.linalg.norm(grid.max(axis=0) - grid.min(axis=0))) + delta
    h_min = 1e-10 * max(span, 1.0)
    memo = dict(zip(_row_keys(grid), gvals.tolist()))

    # every start keeps its own x, g(x), h and count of steps taken
    x, fx = grid[seeds], gvals[seeds].astype(float)
    h = np.full(len(seeds), span / 8)
    steps = np.zeros(len(seeds), dtype=int)
    halt = None  # (step, start, point) of the earliest read of a refused row
    live = np.nonzero(h >= h_min)[0]
    while len(live):
        H = h[live, None] * 0.5 ** np.arange(_round_scales(len(live) * len(stencil)))
        use = H >= h_min
        Z = x[live, None, None, :] + H[:, :, None, None] * stencil
        vals = np.full(Z.shape[:3], np.inf)
        vals[use] = _g_rows(Z[use].reshape(-1, dim), memo, f1, sc).reshape(-1, len(stencil))
        refused = np.isnan(vals)
        bad = refused.any(axis=2)
        # a move, or a read of a refused row, ends the replay
        stop = use & ((vals.min(axis=2) < fx[live, None]) | bad)
        scales = zip(stop.tolist(), use.sum(axis=1).tolist(), bad.tolist(), H.tolist())
        for i, (s, (ends, n_use, fail, Hi)) in enumerate(zip(live.tolist(), scales)):
            j = ends.index(True) if True in ends else n_use - 1
            steps[s] += j + 1
            if fail[j]:
                if halt is None or (steps[s], s) < halt[:2]:
                    halt = (steps[s], s, Z[i, j, np.argmax(refused[i, j])])
                h[s] = 0.0
            elif ends[j]:
                k = np.argmin(vals[i, j])
                x[s], fx[s], h[s] = Z[i, j, k], vals[i, j, k], Hi[j] * 2
            else:
                h[s] = Hi[j] / 2
        live = live[h[live] >= h_min]
        if halt is not None:  # a start short of the halt's step may halt sooner
            live = live[steps[live] < halt[0]]
    if halt is not None:
        phi_eval(halt[2], sc)  # refused in its batch, so refused alone: raises
        raise AssertionError("a refused smoothing value was certified alone")

    best_x, best_f = min(zip(x, fx), key=lambda end: (end[1], tuple(end[0])))
    return EkelandPoint(u=best_x.copy(), eps=EKELAND_EPS, value=float(best_f))


class EvpReport(NamedTuple):
    ok: bool
    worst: float


def evp_verify(u, eps: float, f1: TestFunction, sc: SupConvSpec, grid) -> EvpReport:
    """Grid check of the domination inequality around u (see ``evp_check``)."""
    u = as_point(u)
    gu = _g_eval(u, f1, sc)
    if not np.isfinite(gu):
        raise ValueError("g(u) must be finite")
    return evp_check(g_table(f1, sc, grid), u, gu, eps)


def evp_check(table: GTable, u, gu: float, eps: float) -> EvpReport:
    """Grid check of the domination inequality around u, whose g value is
    ``gu``:

        g(z) + eps ||z - u|| >= g(u) - EVP_TOL  for all table points z.

    worst is the smallest left-minus-right margin over the finite ones.
    """
    u = as_point(u)
    finite = np.isfinite(table.g)
    dists = row_norms(table.pts[finite] - u)
    worst = float(np.min(table.g[finite] + eps * dists - gu, initial=np.inf))
    return EvpReport(worst >= -EVP_TOL, worst)


def _perturbation_offsets(n: int, radius: float) -> np.ndarray:
    """The pair search's pattern of y - u, as (offsets, n) rows: 0, then
    the 3^n - 1 nonzero sign vectors s of {-1, 0, 1}^n, in product order,
    as rho s / ||s|| at rho = radius / 8, / 4, / 2 and radius."""
    signs = np.array([c for c in itertools.product((-1.0, 0.0, 1.0), repeat=n) if any(c)])
    rho = np.array([radius / 8, radius / 4, radius / 2, radius])[:, None, None]
    return np.vstack([np.zeros(n), (rho * signs / row_norms(signs)[:, None]).reshape(-1, n)])


def fuzzy_pair(
    u: EkelandPoint,
    f: TestFunction,
    sc: SupConvSpec,
    search_radius: float,
    grid: np.ndarray,
    grid_phi: np.ndarray | None = None,
) -> FuzzyPair:
    """Nearly-cancelling pair: p from f's representatives at x, q from the
    negated smoothing supergradient at y, with x, y within search_radius
    of u.

    Minimizes residual plus separation over a deterministic perturbation
    pattern of y, with x = y or x = u; fails loudly when the residual
    exceeds ``RESIDUAL_FACTOR`` times the eps of u (a kink coincidence no
    point of the pattern gets past).  Every supergradient is checked on
    ``grid``; ``grid_phi``, the smoothing there, serves every check when
    the caller already has it.

    The search is batched: one ``phi_supergradients`` call gives the
    checked supergradient at every y of the pattern, one ``f_subgrads``
    batch f's representatives at every candidate x, each distinct point
    once, and one batched dot every residual and separation.  The walk
    then visits the pattern in order, keeping the least residual plus
    separation by more than 1e-15, and stops at the first y whose best
    pair has residual at most 1e-12, so only a y it visits can raise
    PhiEvalError, as one call per y did.
    """
    if not (np.isfinite(search_radius) and search_radius > 0):
        raise ValueError("search_radius must be positive and finite")
    base = as_point(u.u, f.dim)
    offsets = _perturbation_offsets(f.dim, search_radius)
    Y = base + offsets
    # u is a candidate x for every y, and is y itself at the zero offset
    subgrads = _subgrads_by_row(f, np.vstack([base, Y]))
    sg = phi_supergradients(Y, sc, grid, grid_phi)
    Q = -sg.p
    # every candidate (y's index, x = u, p) in the walk's order: x = y, then x = u
    cands = [
        (i, at_u, p)
        for i, (ok, moved) in enumerate(zip(sg.ok.tolist(), offsets.any(axis=1).tolist()))
        if ok
        for at_u in ((False, True) if moved else (False,))
        for p in subgrads[0 if at_u else 1 + i]
    ]
    I = [c[0] for c in cands]
    P = np.array([c[2] for c in cands], dtype=float).reshape(-1, f.dim)
    residuals = row_norms(P + Q[I]).tolist()
    to_u = row_norms(base - Y).tolist()

    best, best_score = None, np.inf
    for _, group in itertools.groupby(range(len(cands)), key=I.__getitem__):
        for c in group:
            score = residuals[c] + (to_u[I[c]] if cands[c][1] else 0.0)
            if score < best_score - 1e-15:
                best, best_score = c, score
        if best is not None and residuals[best] <= 1e-12:
            break
    else:
        if sg.refused < len(Y):
            phi_supergradient(Y[sg.refused], sc, grid, grid_phi)  # refused alone too: raises
            raise AssertionError("a refused smoothing value was certified alone")
    if best is None or residuals[best] > RESIDUAL_FACTOR * u.eps:
        got = "none" if best is None else f"{residuals[best]:.3e}"
        raise FuzzyPairError(
            f"no pair with residual <= {RESIDUAL_FACTOR * u.eps:.3e} near "
            f"{base.tolist()} (best {got})"
        )
    i, at_u, p = cands[best]
    return FuzzyPair(
        x=(base if at_u else Y[i]).copy(),
        p=p.copy(),
        y=Y[i].copy(),
        q=Q[i].copy(),
        residual=residuals[best],
        separation=to_u[i] if at_u else 0.0,
    )


def _subgrads_by_row(f: TestFunction, X: np.ndarray) -> list[list[np.ndarray]]:
    """f's subgradient representatives at each row of X, from one batch
    of its distinct rows; a ``TestFunction`` gives none outside its
    domain."""
    keys = _row_keys(X)
    distinct = list(dict.fromkeys(keys))
    U = np.frombuffer(b"".join(distinct), dtype=float).reshape(-1, X.shape[1])
    by_key = dict(zip(distinct, f_subgrads(f, U)))
    return [by_key[k] for k in keys]
