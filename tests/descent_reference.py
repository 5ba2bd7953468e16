"""The coordinate-and-random-direction descent that the batched compass
search in ``mdmvi.ekeland.descend_g`` replaced, kept as the reference the
search is tested against.

From each of the three best points of the table it sweeps exact
golden-section line searches (``mdmvi.simplex_optim.golden_max``) over the
coordinates and two seeded random directions, evaluating g one probe at a
time, for at most 30 sweeps or until a sweep improves g by less than
1e-9 (1 + |g|).
"""

import numpy as np

from mdmvi.ekeland import GTable, _g_eval
from mdmvi.functions import TestFunction
from mdmvi.simplex_optim import golden_max
from mdmvi.supconv import SupConvSpec


def reference_descent(
    table: GTable,
    f1: TestFunction,
    sc: SupConvSpec,
    delta: float,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """The best point reached and its g value."""
    grid, gvals = table.pts, table.g
    finite = np.isfinite(gvals)
    order = sorted(np.nonzero(finite)[0], key=lambda i: (gvals[i], tuple(grid[i])))
    seeds = order[:3]

    dim = grid.shape[1]
    rng = np.random.default_rng(seed)
    dirs = [np.eye(dim)[i] for i in range(dim)]
    for _ in range(2):
        d = rng.standard_normal(dim)
        nrm = np.linalg.norm(d)
        if nrm > 1e-12:
            dirs.append(d / nrm)
    span = float(np.linalg.norm(grid.max(axis=0) - grid.min(axis=0))) + delta
    memo: dict[bytes, float] = {}

    def g(z: np.ndarray) -> float:
        key = z.tobytes()
        if key not in memo:
            memo[key] = _g_eval(z, f1, sc)
        return memo[key]

    def descend(x0: np.ndarray, g0: float) -> tuple[np.ndarray, float]:
        x, fx = x0.copy(), g0
        for _ in range(30):
            start = fx
            for d in dirs:
                t, neg = golden_max(
                    lambda s: -min(g(x + s * d), 1e30),
                    -span,
                    span,
                    xtol=1e-10 * max(span, 1.0),
                )
                if -neg < fx - 1e-13:
                    x = x + t * d
                    fx = -neg
            if fx > start - 1e-9 * (1.0 + abs(start)):
                break
        return x, fx

    best_x, best_f = None, np.inf
    for i in seeds:
        x, fx = descend(grid[i], float(gvals[i]))
        if best_x is None or (fx, tuple(x)) < (best_f, tuple(best_x)):
            best_x, best_f = x, fx
    return best_x, best_f
