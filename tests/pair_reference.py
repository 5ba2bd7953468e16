"""The offset-at-a-time pair search that the batched one in
``mdmvi.ekeland.fuzzy_pair`` replaced, kept as the reference that search
is tested against, bit for bit.

For each offset of ``_perturbation_offsets`` in turn it computes the
supergradient at y = u + off with its own ``phi_supergradient`` call, and
f's value and subgradients at each candidate x (y, then u) with one-row
``f_eval`` and ``f_subgrad`` calls; u's subgradients are computed once.
It keeps the pair of least residual plus separation, by more than 1e-15,
and stops at the first offset whose best pair has residual at most 1e-12.
"""

import numpy as np

from mdmvi.ekeland import (
    RESIDUAL_FACTOR,
    EkelandPoint,
    FuzzyPair,
    FuzzyPairError,
    _perturbation_offsets,
)
from mdmvi.functions import TestFunction, f_eval, f_subgrad
from mdmvi.geometry import as_point
from mdmvi.supconv import SupConvSpec, SupergradientError, phi_supergradient


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
            return phi_supergradient(y, sc, grid=grid, grid_phi=grid_phi)
        except SupergradientError:
            return None

    def subgrads(x):  # none outside the domain of f
        return f_subgrad(f, x) if np.isfinite(f_eval(f, x)) else []

    base_key, base_subgrads = base.tobytes(), subgrads(base)
    best: FuzzyPair | None = None
    best_score = np.inf
    for off in _perturbation_offsets(f.dim, search_radius):
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
