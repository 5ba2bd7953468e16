"""The compass searches that the speculative search in
``mdmvi.ekeland.descend_g`` replaced, kept as the references that search
is tested against, bit for bit.

Both run the same compass search from each of the three best points of
the table: each step evaluates g on the stencil x +- h d and moves to the
stencil's best point, first on ties, doubling h, when that lowers g;
otherwise it halves h.  The starts share one memo of g.

- ``reference_compass`` runs the starts one after another, one batch per
  step of one start.
- ``reference_lockstep`` steps the live starts together, one batch per
  round holding one stencil, at one scale, of every live start.  Its
  PhiEvalError is the one the speculative search must raise: that of the
  first refused row of the earliest round that reads one.

Neither evaluates a row it does not read.
"""

import numpy as np

from mdmvi.ekeland import GTable
from mdmvi.functions import TestFunction, f_values
from mdmvi.supconv import SupConvSpec, phi_on_grid


def _setup(table: GTable, delta: float, seed: int):
    """The starts, stencil, first scale, stop and memo of the search."""
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
    return seeds, stencil, span / 8, h_min, memo


def _g_rows(Z: np.ndarray, memo: dict, f1: TestFunction, sc: SupConvSpec) -> np.ndarray:
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


def reference_compass(
    table: GTable,
    f1: TestFunction,
    sc: SupConvSpec,
    delta: float,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """The best point reached and its g value, start after start."""
    seeds, stencil, h0, h_min, memo = _setup(table, delta, seed)

    def descend(x: np.ndarray, fx: float) -> tuple[np.ndarray, float]:
        h = h0
        while h >= h_min:
            Z = x + h * stencil
            vals = _g_rows(Z, memo, f1, sc)
            k = int(np.argmin(vals))
            if vals[k] < fx:
                x, fx = Z[k], float(vals[k])
                h *= 2
            else:
                h /= 2
        return x, fx

    ends = [descend(table.pts[i], float(table.g[i])) for i in seeds]
    return min(ends, key=lambda end: (end[1], tuple(end[0])))


def reference_lockstep(
    table: GTable,
    f1: TestFunction,
    sc: SupConvSpec,
    delta: float,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """The best point reached and its g value, the live starts stepping
    together."""
    seeds, stencil, h0, h_min, memo = _setup(table, delta, seed)
    dim = stencil.shape[1]
    x, fx = table.pts[seeds], table.g[seeds].astype(float)
    h = np.full(len(seeds), h0)
    live = np.nonzero(h >= h_min)[0]
    while len(live):
        Z = x[live, None, :] + h[live, None, None] * stencil
        vals = _g_rows(Z.reshape(-1, dim), memo, f1, sc).reshape(Z.shape[:2])
        k = np.argmin(vals, axis=1)
        best = vals[np.arange(len(live)), k]
        moved = best < fx[live]
        x[live[moved]] = Z[moved, k[moved]]
        fx[live[moved]] = best[moved]
        h[live] = np.where(moved, h[live] * 2, h[live] / 2)
        live = live[h[live] >= h_min]
    return min(zip(x, fx), key=lambda end: (end[1], tuple(end[0])))
