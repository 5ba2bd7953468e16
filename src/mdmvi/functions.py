"""Catalog of lower semicontinuous test functions with exact value and
subgradient-representative oracles.

A ``TestFunction`` is its two row oracles and nothing else: ``rows``
maps an (m, n) array of points to their m values, and ``subgrad_rows``
to an (m, k, n) array of subgradient representatives, NaN rows standing
for those a point lacks.  One point is one row of a batch.  Every sum is
written term by term (``geometry.row_dot``), so a point gets the same bits
alone (``f_eval``, ``f_subgrad``) or in a batch (``f_values``,
``f_subgrads``).  A restricted member reads its values and interior points
from one exact batched hull screen of its domain.

Subdifferentials are exposed as finite representative sets: extreme points
for the convex members (active-piece gradients of a max-affine, the unit
sphere representatives of the norm at its center), the gradient for smooth
members, and the empty set outside the effective domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import Hull, Polytope, as_point, as_rows, row_dot

_ACTIVE_TOL = 1e-9


def _reps(G: np.ndarray) -> list[np.ndarray]:
    """One row of a subgradient table as fresh arrays, NaN rows dropped."""
    return [g.copy() for g in G if not np.isnan(g[0])]


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Lsc function defined by its two row oracles.

    ``rows`` maps an (m, dim) array of points to their m values, and
    ``subgrad_rows`` to an (m, k, dim) table of subgradient
    representatives, NaN rows padding each point's list to k.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    fid: str
    params: dict
    dim: int
    rows: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    subgrad_rows: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def f_eval(f: TestFunction, x) -> float:
    """f at one point: one row of ``f.rows``."""
    return float(f.rows(as_point(x, f.dim)[None, :])[0])


def f_values(f: TestFunction, X) -> np.ndarray:
    """f on every row of X, an (m, dim) array of finite points, validated
    once; each value equals ``f_eval`` at that row."""
    return f.rows(as_rows(X, f.dim))


def f_subgrad(f: TestFunction, x) -> list[np.ndarray]:
    """f's subgradient representatives at x: one row of ``f.subgrad_rows``."""
    return _reps(f.subgrad_rows(as_point(x, f.dim)[None, :])[0])


def f_subgrads(f: TestFunction, X) -> list[list[np.ndarray]]:
    """f's subgradient representatives at every row of X, from one
    ``f.subgrad_rows`` batch; each list equals ``f_subgrad`` at that row."""
    return [_reps(G) for G in f.subgrad_rows(as_rows(X, f.dim))]


def _on_rows(rows, X: np.ndarray, keep: np.ndarray, fill: float) -> np.ndarray:
    """``rows`` on the rows of X where ``keep`` holds, ``fill`` elsewhere."""
    got = rows(X[keep])
    out = np.full((len(X),) + got.shape[1:], fill)
    out[keep] = got
    return out


def _mat_rows(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """x @ Q for each row x of X, term by term."""
    return np.stack([row_dot(X, Q[:, j]) for j in range(Q.shape[1])], axis=1)


def _quad_rows(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """x @ Q @ x for each row x of X, as (x @ Q) @ x, term by term."""
    return row_dot(_mat_rows(X, Q), X)


def linear(a, b: float = 0.0) -> TestFunction:
    a = as_point(a)
    b = float(b)

    return TestFunction(
        fid="linear",
        params={"a": a.tolist(), "b": b},
        dim=a.size,
        rows=lambda X: row_dot(X, a) + b,
        subgrad_rows=lambda X: np.broadcast_to(a, (len(X), 1, a.size)),
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
        rows=lambda X: 0.5 * _quad_rows(X, Q) + row_dot(X, a),
        subgrad_rows=lambda X: (_mat_rows(X, Q) + a)[:, None, :],
    )


def l2_norm(x0) -> TestFunction:
    x0 = as_point(x0)
    n = x0.size

    def rows(X):
        D = X - x0
        return np.sqrt(row_dot(D, D))

    unit = np.kron(np.eye(n), [[1.0], [-1.0]])  # at the center: e_0, -e_0, e_1, ...

    def subgrad(X):
        nrm = rows(X)
        off = nrm > 1e-12
        G = np.where(off[:, None, None], np.nan, unit)
        G[off, 0] = (X[off] - x0) / nrm[off, None]
        return G

    return TestFunction(
        fid="l2_norm",
        params={"x0": x0.tolist()},
        dim=n,
        rows=rows,
        subgrad_rows=subgrad,
    )


def max_affine(slopes, offsets) -> TestFunction:
    S = np.atleast_2d(np.asarray(slopes, dtype=float))
    b = np.atleast_1d(np.asarray(offsets, dtype=float))
    if S.shape[0] != b.size:
        raise ValueError("one offset per affine piece")

    def pieces(X):
        return np.stack([row_dot(X, piece) for piece in S], axis=1) + b

    def subgrad(X):
        vals = pieces(X)
        top = np.max(vals, axis=1, keepdims=True)
        active = vals >= top - _ACTIVE_TOL * (1.0 + np.abs(top))
        return np.where(active[:, :, None], S, np.nan)

    return TestFunction(
        fid="max_affine",
        params={"slopes": S.tolist(), "offsets": b.tolist()},
        dim=S.shape[1],
        rows=lambda X: np.max(pieces(X), axis=1),
        subgrad_rows=subgrad,
    )


def sin_quadratic(c: float, w, Q, a) -> TestFunction:
    """Smooth nonconvex member c * sin(<w, x>) plus a convex quadratic."""
    w = as_point(w)
    a = as_point(a, w.size)
    Q = np.asarray(Q, dtype=float)
    Q = 0.5 * (Q + Q.T)

    def rows(X):
        return c * np.sin(row_dot(X, w)) + 0.5 * _quad_rows(X, Q) + row_dot(X, a)

    def subgrad(X):
        return ((c * np.cos(row_dot(X, w)))[:, None] * w + _mat_rows(X, Q) + a)[:, None]

    return TestFunction(
        fid="sin_quadratic",
        params={"c": float(c), "w": w.tolist(), "Q": Q.tolist(), "a": a.tolist()},
        dim=w.size,
        rows=rows,
        subgrad_rows=subgrad,
    )


def restricted(base: TestFunction, domain: Polytope) -> TestFunction:
    """base plus the indicator of a polytope (distance at most 1e-9);
    boundary points keep the value but expose no subgradients.  One hull
    screen decides both: x is interior when its probes x +- 1.25e-9 e_i
    all lie within 2.5e-10 of the polytope, i.e. 1e-9 from an end in 1-D,
    while on a facet of any slope some probe is 1.25e-9/sqrt(dim) out."""
    if domain.dim != base.dim:
        raise ValueError("domain dimension must match the base function")
    hull = Hull(domain, domain)
    steps = 1.25e-9 * np.vstack([np.eye(base.dim), -np.eye(base.dim)])

    def subgrad(X):
        probes = (X[:, None, :] + steps).reshape(-1, base.dim)
        inside = hull.within(probes, 2.5e-10).reshape(len(X), len(steps)).all(axis=1)
        return _on_rows(base.subgrad_rows, X, inside, np.nan)

    return TestFunction(
        fid="restricted",
        params={
            "base": {"id": base.fid, "params": base.params},
            "domain": domain.to_json(),
        },
        dim=base.dim,
        rows=lambda X: _on_rows(base.rows, X, hull.within(X, 1e-9), np.inf),
        subgrad_rows=subgrad,
    )


def _json_numbers(data: dict, key: str):
    """data[key], a JSON number or nested lists of them; a bool, a string
    or null anywhere in it is refused rather than converted."""
    value, todo = data[key], [data[key]]
    while todo:
        item = todo.pop()
        if isinstance(item, list):
            todo += item
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise TypeError(f"{key} must hold JSON numbers, not {item!r}")
    return value


def make_function(fid: str, params: dict) -> TestFunction:
    """Build a catalog member from its JSON id and parameters; a numeric
    parameter holding anything but JSON numbers is refused (TypeError)."""

    def num(key):
        return _json_numbers(params, key)

    try:
        if fid == "linear":
            return linear(num("a"), num("b") if "b" in params else 0.0)
        if fid == "quadratic":
            return quadratic(num("Q"), num("a"))
        if fid == "l2_norm":
            return l2_norm(num("x0"))
        if fid == "max_affine":
            return max_affine(num("slopes"), num("offsets"))
        if fid == "sin_quadratic":
            return sin_quadratic(num("c"), num("w"), num("Q"), num("a"))
        if fid == "restricted":
            base = make_function(params["base"]["id"], params["base"]["params"])
            return restricted(base, Polytope.from_json(num("domain")))
    except KeyError as exc:
        raise ValueError(f"missing parameter {exc} for function id {fid!r}") from exc
    raise ValueError(f"unknown function id {fid!r}")
