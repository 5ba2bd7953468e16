"""The offset-at-a-time pair search that the batched one in
``mdmvi.ekeland.fuzzy_pair`` replaced, kept as the reference that search
is tested against, bit for bit.

For each offset of ``perturbation_offsets`` in turn it computes the
supergradient at y = u + off with its own ``checked_supergradient``
call, and f's value and subgradients at each candidate x (y, then u) with
one-row ``f_eval`` and ``f_subgrad`` calls; u's subgradients are
computed once.
It keeps the pair of least residual plus separation, by more than 1e-15,
and stops at the first offset whose best pair has residual at most 1e-12.

``perturbation_offsets`` is the pattern as a list of one array per
offset, and ``checked_supergradient`` checks one y on the grid with the
matrix-vector product ``(pts - y) @ p``: both as the search computed
them before it took the pattern as one array and checked every y in one
matrix product.
"""

import itertools

import numpy as np

from mdmvi.ekeland import RESIDUAL_FACTOR, EkelandPoint, FuzzyPair, FuzzyPairError
from mdmvi.functions import TestFunction, f_eval, f_subgrad
from mdmvi.geometry import as_point
from mdmvi.supconv import (
    FD_STEP,
    SEP_TOL,
    SUPER_TOL,
    SupConvSpec,
    Supergradient,
    SupergradientError,
    _evaluate,
    _fd_stencils,
    phi_on_grid,
)


def perturbation_offsets(n: int, radius: float) -> list[np.ndarray]:
    offsets = [np.zeros(n)]
    signs = [
        np.array(c, dtype=float) - 1.0
        for c in itertools.product(range(3), repeat=n)
        if any(v != 1 for v in c)
    ]
    for rho in (radius / 8, radius / 4, radius / 2, radius):
        for s in signs:
            offsets.append(rho * s / np.linalg.norm(s))
    return offsets


def checked_supergradient(x, sc: SupConvSpec, grid, grid_phi=None) -> Supergradient:
    """The smoothing's supergradient at x, from x's difference stencil,
    checked on the grid one vector at a time (PhiEvalError where the
    stencil is refused, SupergradientError where the check fails)."""
    x = as_point(x, sc.dim)
    out = _evaluate(sc, _fd_stencils(x[None, :])[0])
    pts = np.asarray(grid, dtype=float)
    vals = phi_on_grid(sc, pts) if grid_phi is None else grid_phi
    value = float(out.value[0])
    sep = float(np.linalg.norm(x - out.argmax[0]))
    if sep > SEP_TOL:
        p = -sc.K * (x - out.argmax[0]) / sep
        mode = "cone-formula"
    else:
        p = (out.value[1 : sc.dim + 1] - out.value[sc.dim + 1 :]) / (2 * FD_STEP)
        mode = "fallback"

    worst = float(np.max(vals - value - (pts - x) @ p))
    if worst > SUPER_TOL:
        raise SupergradientError(
            f"supergradient check failed at {x.tolist()} (mode {mode}, "
            f"violation {worst:.3e}); perturb x away from the kink"
        )
    return Supergradient(p, mode)


def reference_pair(
    u: EkelandPoint,
    f: TestFunction,
    sc: SupConvSpec,
    search_radius: float,
    grid: np.ndarray,
    grid_phi: np.ndarray | None = None,
) -> FuzzyPair:
    if not (np.isfinite(search_radius) and search_radius > 0):
        raise ValueError("search_radius must be positive and finite")
    base = as_point(u.u, f.dim)

    def supergradient(y):  # None where the check fails
        try:
            return checked_supergradient(y, sc, grid=grid, grid_phi=grid_phi)
        except SupergradientError:
            return None

    def subgrads(x):  # none outside the domain of f
        return f_subgrad(f, x) if np.isfinite(f_eval(f, x)) else []

    base_key, base_subgrads = base.tobytes(), subgrads(base)
    best: FuzzyPair | None = None
    best_score = np.inf
    for off in perturbation_offsets(f.dim, search_radius):
        y = base + off
        sg = supergradient(y)
        if sg is None:
            continue
        q = -sg.p
        x_cands = [y] if not off.any() else [y, base]
        for x in x_cands:
            for p in base_subgrads if x.tobytes() == base_key else subgrads(x):
                residual = float(np.linalg.norm(p + q))
                separation = float(np.linalg.norm(x - y))
                score = residual + separation
                if score < best_score - 1e-15:
                    best_score = score
                    best = FuzzyPair(
                        x=np.asarray(x, dtype=float).copy(),
                        p=np.asarray(p, dtype=float).copy(),
                        y=y.copy(),
                        q=q.copy(),
                        residual=residual,
                        separation=separation,
                    )
        if best is not None and best.residual <= 1e-12:
            break
    if best is None or best.residual > RESIDUAL_FACTOR * u.eps:
        got = "none" if best is None else f"{best.residual:.3e}"
        raise FuzzyPairError(
            f"no pair with residual <= {RESIDUAL_FACTOR * u.eps:.3e} near "
            f"{base.tolist()} (best {got})"
        )
    return best
