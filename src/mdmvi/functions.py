"""Catalog of lower semicontinuous test functions with exact value and
subgradient-representative oracles.

Each catalog member defines its value once, on rows: an (m, n) array of
points maps to their m values, with every sum written term by term, so a
point gets the same bits alone (``f_eval``) or in a batch (``f_values``).
A restricted member reads both its values and its interior points from
one exact batched hull screen of its domain (``geometry.HullScreen``).

Subdifferentials are exposed as finite representative sets: extreme points
for the convex members (active-piece gradients of a max-affine, the unit
sphere representatives of the norm at its center), the gradient for smooth
members, and the empty set outside the effective domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import HullScreen, Polytope, as_point, as_rows

_ACTIVE_TOL = 1e-9


class RowOracle:
    """A value oracle defined on rows: ``rows`` maps an (m, n) array to the
    m values.  Called on one point, it reads that point's row."""

    __slots__ = ("rows",)

    def __init__(self, rows: Callable[[np.ndarray], np.ndarray]):
        self.rows = rows

    def __call__(self, x) -> float:
        return float(self.rows(np.asarray(x, dtype=float)[None, :])[0])


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Lsc function with exact value and subgradient-representative oracles.

    ``value`` is either a ``RowOracle`` or a scalar callable on one point;
    ``rows``, the batched value on an (m, n) array, is the oracle's own or
    a loop over the scalar callable.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    fid: str
    params: dict
    dim: int
    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray], list[np.ndarray]]
    rows: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        rows = getattr(self.value, "rows", None)
        if rows is None:
            scalar = self.value

            def rows(X):
                return np.array([float(scalar(x)) for x in X], dtype=float)

        object.__setattr__(self, "rows", rows)


def f_eval(f: TestFunction, x) -> float:
    """f at one point: one row of ``f.rows``."""
    return float(f.rows(as_point(x, f.dim)[None, :])[0])


def f_values(f: TestFunction, X) -> np.ndarray:
    """f on every row of X, an (m, dim) array of finite points, validated
    once; each value equals ``f_eval`` at that row."""
    return f.rows(as_rows(X, f.dim))


def f_subgrad(f: TestFunction, x) -> list[np.ndarray]:
    return f.subgrad(as_point(x, f.dim))


def _row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """<x, y> for each row x of X and the matching row y of Y (or one
    vector Y), summed term by term, so each row rounds as it does alone."""
    out = X[:, 0] * Y[..., 0]
    for j in range(1, X.shape[1]):
        out = out + X[:, j] * Y[..., j]
    return out


def _quad_rows(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """x @ Q @ x for each row x of X, as (x @ Q) @ x, term by term."""
    XQ = np.stack([_row_dot(X, Q[:, j]) for j in range(Q.shape[1])], axis=1)
    return _row_dot(XQ, X)


def linear(a, b: float = 0.0) -> TestFunction:
    a = as_point(a)
    b = float(b)

    return TestFunction(
        fid="linear",
        params={"a": a.tolist(), "b": b},
        dim=a.size,
        value=RowOracle(lambda X: _row_dot(X, a) + b),
        subgrad=lambda x: [a.copy()],
    )


def quadratic(Q, a) -> TestFunction:
    a = as_point(a)
    Q = np.asarray(Q, dtype=float)
    Q = 0.5 * (Q + Q.T)
    if Q.shape != (a.size, a.size):
        raise ValueError("Q must be square and match a")
    if np.min(np.linalg.eigvalsh(Q)) < -1e-9:
        raise ValueError("quadratic catalog member must be convex")

    return TestFunction(
        fid="quadratic",
        params={"Q": Q.tolist(), "a": a.tolist()},
        dim=a.size,
        value=RowOracle(lambda X: 0.5 * _quad_rows(X, Q) + _row_dot(X, a)),
        subgrad=lambda x: [Q @ x + a],
    )


def l2_norm(x0) -> TestFunction:
    x0 = as_point(x0)
    n = x0.size

    def rows(X):
        D = X - x0
        return np.sqrt(_row_dot(D, D))

    def subgrad(x):
        d = x - x0
        nrm = np.linalg.norm(d)
        if nrm > 1e-12:
            return [d / nrm]
        reps = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            reps.extend([e, -e])
        return reps

    return TestFunction(
        fid="l2_norm",
        params={"x0": x0.tolist()},
        dim=n,
        value=RowOracle(rows),
        subgrad=subgrad,
    )


def max_affine(slopes, offsets) -> TestFunction:
    S = np.atleast_2d(np.asarray(slopes, dtype=float))
    b = np.atleast_1d(np.asarray(offsets, dtype=float))
    if S.shape[0] != b.size:
        raise ValueError("one offset per affine piece")

    def rows(X):
        return np.max(np.stack([_row_dot(X, piece) for piece in S], axis=1) + b, axis=1)

    def subgrad(x):
        vals = S @ x + b
        top = float(np.max(vals))
        active = np.nonzero(vals >= top - _ACTIVE_TOL * (1.0 + abs(top)))[0]
        return [S[i].copy() for i in active]

    return TestFunction(
        fid="max_affine",
        params={"slopes": S.tolist(), "offsets": b.tolist()},
        dim=S.shape[1],
        value=RowOracle(rows),
        subgrad=subgrad,
    )


def sin_quadratic(c: float, w, Q, a) -> TestFunction:
    """Smooth nonconvex member c * sin(<w, x>) plus a convex quadratic."""
    w = as_point(w)
    a = as_point(a, w.size)
    Q = np.asarray(Q, dtype=float)
    Q = 0.5 * (Q + Q.T)

    def rows(X):
        return c * np.sin(_row_dot(X, w)) + 0.5 * _quad_rows(X, Q) + _row_dot(X, a)

    return TestFunction(
        fid="sin_quadratic",
        params={"c": float(c), "w": w.tolist(), "Q": Q.tolist(), "a": a.tolist()},
        dim=w.size,
        value=RowOracle(rows),
        subgrad=lambda x: [c * np.cos(w @ x) * w + Q @ x + a],
    )


def restricted(base: TestFunction, domain: Polytope) -> TestFunction:
    """base plus the indicator of a polytope (distance at most 1e-9);
    boundary points keep the value but expose no subgradients.  One hull
    screen decides both: x is interior when its probes x +- 1.25e-9 e_i
    all lie within 2.5e-10 of the polytope, i.e. 1e-9 from an end in 1-D,
    while on a facet of any slope some probe is 1.25e-9/sqrt(dim) out."""
    if domain.dim != base.dim:
        raise ValueError("domain dimension must match the base function")
    screen = HullScreen(domain, domain)
    steps = 1.25e-9 * np.vstack([np.eye(base.dim), -np.eye(base.dim)])

    def rows(X):
        inside = screen.within(X, 1e-9)
        vals = np.full(len(X), np.inf)
        vals[inside] = base.rows(X[inside])
        return vals

    def subgrad(x):
        return base.subgrad(x) if screen.within(x + steps, 2.5e-10).all() else []

    return TestFunction(
        fid="restricted",
        params={
            "base": {"id": base.fid, "params": base.params},
            "domain": domain.to_json(),
        },
        dim=base.dim,
        value=RowOracle(rows),
        subgrad=subgrad,
    )


def make_function(fid: str, params: dict, dim: int | None = None) -> TestFunction:
    """Build a catalog member from its JSON id and parameters."""
    try:
        if fid == "linear":
            return linear(params["a"], params.get("b", 0.0))
        if fid == "quadratic":
            return quadratic(params["Q"], params["a"])
        if fid == "l2_norm":
            return l2_norm(params["x0"])
        if fid == "max_affine":
            return max_affine(params["slopes"], params["offsets"])
        if fid == "sin_quadratic":
            return sin_quadratic(params["c"], params["w"], params["Q"], params["a"])
        if fid == "restricted":
            base = make_function(params["base"]["id"], params["base"]["params"])
            return restricted(base, Polytope.from_json(params["domain"]))
    except KeyError as exc:
        raise ValueError(f"missing parameter {exc} for function id {fid!r}") from exc
    raise ValueError(f"unknown function id {fid!r}")
