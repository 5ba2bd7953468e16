"""The per-point ``_lipschitz_estimate`` that the batched one in
``mdmvi.mdmvt`` replaced, kept as the reference that estimate is tested
against.

It walks the points one at a time, skips those where f is +inf, reads the
representatives at each with ``f_subgrad``, and keeps the largest
``np.linalg.norm`` of any of them, starting from 1.
"""

import numpy as np

from mdmvi.functions import TestFunction, f_subgrad, f_values


def lipschitz_estimate(f: TestFunction, pts: np.ndarray, fvals=None) -> float:
    if fvals is None:
        fvals = f_values(f, pts)
    best = 1.0
    for z, fz in zip(pts, fvals):
        if not np.isfinite(fz):
            continue
        for g in f_subgrad(f, z):
            best = max(best, float(np.linalg.norm(g)))
    return best
