"""The start-after-start compass search that the lockstep search in
``mdmvi.ekeland.descend_g`` replaced, kept as the reference that search
is tested against, bit for bit.

From each of the three best points of the table in turn it runs the same
compass search: each step evaluates g on the whole stencil x +- h d in
one batch and moves to the stencil's best point, first on ties, doubling
h, when that lowers g; otherwise it halves h.  The three starts share one
memo of g, but each step is a batch of its own.
"""

import numpy as np

from mdmvi.ekeland import GTable
from mdmvi.functions import TestFunction, f_values
from mdmvi.supconv import SupConvSpec, phi_on_grid


def reference_compass(
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
        if nrm > 1e-12 and all(abs(d @ e) < nrm * (1 - 1e-12) for e in dirs):
            dirs.append(d / nrm)
    stencil = np.vstack([dirs, -np.array(dirs)])
    span = float(np.linalg.norm(grid.max(axis=0) - grid.min(axis=0))) + delta
    h_min = 1e-10 * max(span, 1.0)
    memo = {z.tobytes(): float(v) for z, v in zip(grid, gvals)}

    def g_rows(Z: np.ndarray) -> np.ndarray:
        keys = [z.tobytes() for z in Z]
        fresh = [i for i, k in enumerate(keys) if k not in memo]
        if fresh:
            F = Z[fresh]
            vals = f_values(f1, F)
            ok = np.isfinite(vals)
            vals[~ok] = np.inf
            if ok.any():
                vals[ok] -= phi_on_grid(sc, F[ok])
            memo.update(zip((keys[i] for i in fresh), vals.tolist()))
        return np.array([memo[k] for k in keys])

    def descend(x: np.ndarray, fx: float) -> tuple[np.ndarray, float]:
        h = span / 8
        while h >= h_min:
            Z = x + h * stencil
            vals = g_rows(Z)
            k = int(np.argmin(vals))
            if vals[k] < fx:
                x, fx = Z[k], float(vals[k])
                h *= 2
            else:
                h /= 2
        return x, fx

    ends = [descend(grid[i], float(gvals[i])) for i in seeds]
    return min(ends, key=lambda end: (end[1], tuple(end[0])))
