"""The certificate checker: what a problem spec and a certificate are, and
how a certificate is checked.

A run claims a point xi, a subgradient p of f at xi, and three strict
inequalities:

    value_localization:   f(xi) < inf over [A,B] of f + |r - s| + eps
    subgradient_norm:     ||p|| < (max(r, s) - mu) / delta + eps
    mean_value_increment: inf_B p - inf_A p > s - r

``verify_certificate`` rechecks them from f's row oracles, the polytopes'
geometry and a brute-force grid oracle (``grid_inf``), not from anything
the search (``mdmvt``) computed.  This module imports only the standard
library, numpy, ``functions`` and ``geometry``, so that it can be audited
apart from the search that made the certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__ as _version
from .functions import TestFunction, _json_numbers, f_eval, f_subgrad, f_values, make_function
from .geometry import Polytope, as_point, dist_to_hull, inf_linear, row_norms

MAX_DIM = 3  # the checker's direction nets are written for n <= 3
GRID_ROWS_MAX = 1 << 20  # rows of one box grid, resolution ** n; 302 ** 2 is the largest use


class SpecFormatError(ValueError):
    """The problem description is malformed (missing or ill-typed fields)."""


class SpecInvariantError(ValueError):
    """The problem violates a hypothesis needed by the construction."""


def check_grid_rows(resolution: int, dim: int, name: str = "resolution") -> None:
    """Refuse, before any array is built, a box grid of fewer than 2 points
    per axis or of more than ``GRID_ROWS_MAX`` rows."""
    if resolution < 2:
        raise SpecFormatError(f"{name} must be at least 2")
    if resolution**dim > GRID_ROWS_MAX:
        raise SpecFormatError(
            f"{name} {resolution} in {dim}-D gives {resolution}**{dim} grid rows, "
            f"more than {GRID_ROWS_MAX}"
        )


def _json_int(data: dict, key: str, default: int) -> int:
    """data[key], or default when absent; anything but a JSON integer (a
    float, a bool, a string) is refused rather than truncated."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, not {value!r}")
    return value


def _read_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"invalid JSON: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A concrete certificate problem: function, sets, and parameters."""

    f: TestFunction
    A: Polytope
    B: Polytope
    delta: float
    mu: float
    s: float
    epsilon: float
    resolution: int = 201
    seed: int = 0

    def __post_init__(self):
        if self.A.dim != self.B.dim or self.A.dim != self.f.dim:
            raise SpecFormatError("dimensions of f, A and B must agree")
        if self.A.dim > MAX_DIM:
            raise SpecFormatError(f"dimension must be at most {MAX_DIM}, got {self.A.dim}")
        if not np.isfinite([self.delta, self.mu, self.s, self.epsilon]).all():
            raise SpecFormatError("delta, mu, s and epsilon must be finite")
        if not self.delta > 0:
            raise SpecInvariantError("delta must be positive")
        if not self.epsilon > 0:
            raise SpecInvariantError("epsilon must be positive")
        check_grid_rows(self.resolution, self.A.dim)
        if self.seed < 0:
            raise SpecFormatError("seed must be nonnegative")

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProblemSpec":
        try:
            fun = make_function(data["function"]["id"], data["function"]["params"])
            return cls(
                f=fun,
                A=Polytope.from_json(_json_numbers(data, "A")),
                B=Polytope.from_json(_json_numbers(data, "B")),
                delta=float(_json_numbers(data, "delta")),
                mu=float(_json_numbers(data, "mu")),
                s=float(_json_numbers(data, "s")),
                epsilon=float(_json_numbers(data, "epsilon")),
                resolution=_json_int(data, "resolution", 201),
                seed=_json_int(data, "seed", 0),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, SpecInvariantError):
                raise
            raise SpecFormatError(f"malformed problem spec: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "ProblemSpec":
        return cls.from_json_dict(_read_json(path))

    def to_json_dict(self) -> dict:
        return {
            "function": {"id": self.f.fid, "params": self.f.params},
            "A": self.A.to_json(),
            "B": self.B.to_json(),
            "delta": self.delta,
            "mu": self.mu,
            "s": self.s,
            "epsilon": self.epsilon,
            "resolution": self.resolution,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class PipelineParams:
    r: float
    s1: float
    delta1: float
    K: float


class InequalityCheck(NamedTuple):
    lhs: float
    rhs: float
    slack: float  # positive means the strict inequality holds

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "slack": self.slack}


def _check(lhs: float, rhs: float) -> InequalityCheck:
    """lhs < rhs, with its slack rhs - lhs."""
    return InequalityCheck(lhs, rhs, float(rhs - lhs))


@dataclass(frozen=True, eq=False)
class Certificate:
    xi: np.ndarray
    p: np.ndarray
    checks: dict  # name -> InequalityCheck
    params: PipelineParams
    diagnostics: dict
    tolerances: dict

    def to_json_dict(self) -> dict:
        return {
            "version": _version,
            "xi": [float(v) for v in self.xi],
            "p": [float(v) for v in self.p],
            "params": {
                "r": self.params.r,
                "s1": self.params.s1,
                "delta1": self.params.delta1,
                "K": self.params.K,
            },
            "checks": {k: v.to_json() for k, v in sorted(self.checks.items())},
            "diagnostics": self.diagnostics,
            "tolerances": self.tolerances,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        try:
            checks = {
                k: InequalityCheck(v["lhs"], v["rhs"], v["slack"])
                for k, v in data["checks"].items()
            }
            pp = data["params"]
            return cls(
                xi=as_point(_json_numbers(data, "xi")),
                p=as_point(_json_numbers(data, "p")),
                checks=checks,
                params=PipelineParams(
                    *(float(_json_numbers(pp, k)) for k in ("r", "s1", "delta1", "K"))
                ),
                diagnostics=data.get("diagnostics", {}),
                tolerances=data.get("tolerances", {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecFormatError(f"malformed certificate: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "Certificate":
        return cls.from_json_dict(_read_json(path))


def _lipschitz_estimate(f: TestFunction, pts: np.ndarray, fvals: np.ndarray) -> float:
    """Largest subgradient norm at the points where f, ``fvals`` there, is
    finite; at least 1.  One batched call gives every representative (see
    ``row_norms`` for the norms' bits)."""
    G = f.subgrad_rows(pts[np.isfinite(fvals)])
    return float(np.fmax.reduce(row_norms(G), axis=None, initial=1.0))


@dataclass(frozen=True, eq=False)
class GridInf:
    """Exhaustive grid minimum over the rows ``pts`` (screened box points
    in C order, then the vertices; f there in ``vals``).  The true infimum
    can undershoot it by at most step times a Lipschitz constant of f."""

    value: float
    argmin: np.ndarray
    step: float
    pts: np.ndarray
    vals: np.ndarray


def _sphere_net(n: int, count: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    i = np.arange(count, dtype=float)
    golden = (1 + 5**0.5) / 2
    theta = np.arccos(np.clip(1 - 2 * (i + 0.5) / count, -1.0, 1.0))
    phi = 2 * np.pi * i / golden
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=1,
    )


def _grid_axes(lo: np.ndarray, hi: np.ndarray, resolution: int) -> list[np.ndarray]:
    """Box-grid coordinates along each axis; an axis whose span is at most
    1e-12 holds its midpoint alone."""
    return [
        np.array([0.5 * (a + b)]) if b - a <= 1e-12 else np.linspace(a, b, resolution)
        for a, b in zip(lo, hi)
    ]


def _support(A: Polytope, B: Polytope, dirs: np.ndarray) -> np.ndarray:
    """h(d) = max of d.v over the vertices v of A and B, per direction."""
    return np.maximum(np.max(A.vertices @ dirs.T, axis=0), np.max(B.vertices @ dirs.T, axis=0))


_GAP_ROWS = 4096  # rows per chunk of the support gap


def _max_margin(pts: np.ndarray, support: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """max_d (d.x - h(d)) for each row x of pts: the support gap before
    it is clipped at 0.

    Row chunks reuse one (rows, directions) buffer.  A row gets the same
    bits whichever rows share its chunk: BLAS takes a lone row down a
    matrix-vector path that rounds differently, so a one-row chunk is
    evaluated as two copies of itself."""
    out = np.empty(len(pts))
    buf = np.empty((max(min(len(pts), _GAP_ROWS), 2), len(dirs)))
    for i in range(0, len(pts), _GAP_ROWS):
        chunk = pts[i : i + _GAP_ROWS]
        rows = len(chunk)
        if rows == 1:
            chunk = np.repeat(chunk, 2, axis=0)
        margins = np.matmul(chunk, dirs.T, out=buf[: len(chunk)])
        margins -= support
        margins[:rows].max(axis=1, out=out[i : i + rows])
    return out


def _halve(first: np.ndarray, last: np.ndarray, upper: np.ndarray):
    """The children of each box [first, last]: every index range longer
    than one splits into [first, mid] and [mid + 1, last].  ``upper`` lists
    the 2^n choices of half per axis; a choice of the upper half on an axis
    of length one makes no child."""
    first, last = first[:, None, :], last[:, None, :]
    mid = (first + last) // 2
    ok = np.all((last > first) | ~upper, axis=2)
    return np.where(upper, mid + 1, first)[ok], np.where(upper, last, mid)[ok]


def _cover(first: np.ndarray, last: np.ndarray, shape, corners: np.ndarray) -> np.ndarray:
    """Boolean mask, of the grid's shape, of the points in the disjoint
    boxes [first, last]: each box adds +-1 at its 2^n corners (``corners``
    picks last + 1 over first per axis), and prefix sums along every axis
    fill it in."""
    count = np.zeros(tuple(s + 1 for s in shape), dtype=np.intp)
    for corner in corners:
        np.add.at(count, tuple(np.where(corner, last + 1, first).T), (-1) ** int(corner.sum()))
    for k in range(len(shape)):
        np.cumsum(count, axis=k, out=count)
    return count[tuple(slice(0, s) for s in shape)] > 0


def _screen(
    axes: list[np.ndarray], support: np.ndarray, dirs: np.ndarray, thr: float
) -> np.ndarray:
    """Boolean mask, of the grid's shape, of the points x with
    max(g(x), 0) <= thr, g the support gap, without scoring every point.

    A box is a range [first, last] of indices per axis; one box covering
    the grid is the start.  For a box with centre c and corner distance
    rho, every grid point x in it has

        |g(x) - g(c)| <= L rho + eta,   L = max ||d|| over the net,

    with g as computed (``_max_margin``) on both sides and
    eta = 1e-12 (1 + max(|coordinate|, |h|)) covering its rounding and
    that of c and rho.  The box is kept whole when g(c) + L rho + eta < thr
    and dropped whole when g(c) - L rho - eta > thr; otherwise it is halved
    (``_halve``).  A box of one point is its own centre and is compared
    exactly, g(x) <= thr, as on the full grid; thr > 0, so clipping at 0
    changes no comparison.  Each level of boxes is one batch (Lipschitz
    branch and bound: Piyavskii 1972; Shubert 1972)."""
    shape = tuple(len(a) for a in axes)
    n = len(axes)
    lip = float(np.max(np.linalg.norm(dirs, axis=1)))
    scale = max(float(np.max(np.abs(support))), *(float(np.max(np.abs(a))) for a in axes))
    eta = 1e-12 * (1.0 + scale)
    upper = np.array(list(np.ndindex(*[2] * n)), dtype=bool)  # one half per axis
    first = np.zeros((1, n), dtype=np.intp)
    last = np.array([shape], dtype=np.intp) - 1
    kept_first, kept_last = [], []
    while len(first):
        lo = np.stack([a[i] for a, i in zip(axes, first.T)], axis=1)
        hi = np.stack([a[i] for a, i in zip(axes, last.T)], axis=1)
        centre = 0.5 * (lo + hi)
        gap = _max_margin(centre, support, dirs)
        reach = lip * np.linalg.norm(hi - centre, axis=1) + eta
        point = np.all(first == last, axis=1)
        keep = np.where(point, gap <= thr, gap + reach < thr)
        split = ~point & ~keep & (gap - reach <= thr)
        kept_first.append(first[keep])
        kept_last.append(last[keep])
        first, last = _halve(first[split], last[split], upper)
    return _cover(np.concatenate(kept_first), np.concatenate(kept_last), shape, upper)


def grid_inf(
    f: TestFunction, A: Polytope, B: Polytope, delta: float, resolution: int
) -> GridInf:
    """Exhaustive minimum of f over the delta-inflated hull of A and B.

    Box-grid points whose support gap exceeds thr = delta + one grid step
    + 1e-12 are dropped.  The coarse-to-fine screen (``_screen``) decides
    this box by box: the gap g(c) at a box's centre, plus or minus L rho +
    eta (L the net's largest norm, rho the centre's distance to a corner,
    eta = 1e-12 (1 + largest coordinate or support value) for rounding),
    keeps or drops the whole box; boxes it leaves undecided are halved down
    to single points, scored exactly.  The kept points are exactly those
    of a full-grid evaluation.  They, in C order, then the vertices, are
    the rows, and the first row attaining the minimum of f over them is
    the argmin.  Raises SpecInvariantError when f is +inf on every row."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    V = np.vstack([A.vertices, B.vertices])
    lo = V.min(axis=0) - delta
    hi = V.max(axis=0) + delta
    axes = _grid_axes(lo, hi, resolution)
    spans = hi - lo
    step = float(np.max(spans / (resolution - 1))) if np.any(spans > 1e-12) else 0.0

    dirs = _sphere_net(V.shape[1], 512 if V.shape[1] == 2 else 2048)
    index = _screen(axes, _support(A, B, dirs), dirs, delta + step + 1e-12).nonzero()
    pts = np.vstack([np.stack([a[i] for a, i in zip(axes, index)], axis=1), V])

    vals = f_values(f, pts)
    best = int(np.argmin(vals))
    if not np.isfinite(vals[best]):
        raise SpecInvariantError("f is +inf on every grid point")
    return GridInf(float(vals[best]), pts[best].copy(), step, pts, vals)


def verify_certificate(
    cert: Certificate, ps: ProblemSpec, resolution: int | None = None
) -> tuple[bool, dict]:
    """Independent recheck of a certificate from oracles and geometry only.

    Recomputes membership of xi, subgradient membership of p, and the
    three inequalities; the value localization uses the brute-force grid
    infimum over [A,B], and the claimed r must match the one over A within
    a grid step times the largest subgradient norm on that grid's rows.
    f is read once per grid row, and at xi.  Raises SpecFormatError when
    xi or p is not a finite point of the spec's dimension or the grid would
    have fewer than 2 points per axis or more than ``GRID_ROWS_MAX`` rows,
    and SpecInvariantError when f is +inf on every row of a grid.
    """
    res = ps.resolution if resolution is None else resolution
    check_grid_rows(res, ps.A.dim)
    report: dict = {}
    try:
        xi = as_point(cert.xi, ps.A.dim)
        p = as_point(cert.p, ps.A.dim)
    except ValueError as exc:
        raise SpecFormatError(f"certificate does not fit the spec: {exc}") from exc
    r, s = cert.params.r, ps.s

    d = dist_to_hull(xi, ps.A, ps.B).d
    report["xi_membership"] = {"distance": d, "delta": ps.delta, "ok": d < ps.delta}

    fx = f_eval(ps.f, xi)
    reps = f_subgrad(ps.f, xi)
    gap = min((float(np.linalg.norm(p - g)) for g in reps), default=np.inf)
    report["subgradient_membership"] = {"distance": gap, "ok": gap <= 1e-8}

    def oracle_inf(B: Polytope, name: str) -> GridInf:
        try:
            return grid_inf(ps.f, ps.A, B, 0.0, res)
        except SpecInvariantError as exc:
            raise SpecInvariantError(f"oracle inf over {name}: {exc}") from exc

    ginf_a = oracle_inf(ps.A, "A")
    r_err = ginf_a.step * _lipschitz_estimate(ps.f, ginf_a.pts, ginf_a.vals) + 1e-9
    report["level_r"] = {
        "claimed": r,
        "oracle": ginf_a.value,
        "tolerance": r_err,
        "ok": r <= ginf_a.value + 1e-9 and r >= ginf_a.value - r_err,
    }

    ginf_hull = oracle_inf(ps.B, "[A,B]")
    for name, lhs, rhs in (
        ("value_localization", fx, ginf_hull.value + abs(r - s) + ps.epsilon),
        ("subgradient_norm", float(np.linalg.norm(p)),
         (max(r, s) - ps.mu) / ps.delta + ps.epsilon),
        ("mean_value_increment", s - r, inf_linear(p, ps.B) - inf_linear(p, ps.A)),
    ):
        report[name] = dict(_check(lhs, rhs).to_json(), ok=lhs < rhs)

    valid = all(section["ok"] for section in report.values())
    report["valid"] = valid
    return valid, report
