"""The search for a certificate of the multidirectional mean value inequality.

Given a problem spec (``check.ProblemSpec``): a function f and polytopes
A, B with level parameters, the pipeline picks the tent and smoothing
parameters, restricts f to the inflated hull C, minimizes g = f1 - phi_K,
extracts a nearly-cancelling pair, and assembles a ``check.Certificate``
(xi, p) for the three inequalities that ``check`` states.

This module holds the search only.  What a spec and a certificate are, and
how a certificate is checked, is ``check``'s; its ``verify_certificate``
is bound here too, the name under which the benchmark times it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .check import Certificate, PipelineParams, ProblemSpec, SpecInvariantError
from .check import _lipschitz_estimate, inequalities
from .check import verify_certificate  # noqa: F401  (the benchmark times it under this name)
from .ekeland import (
    EVP_TOL,
    RESIDUAL_FACTOR,
    FuzzyPairError,
    descend_g,
    evp_check,
    fuzzy_pair,
    g_table,
)
from .functions import TestFunction, _on_rows, f_eval, f_values
from .geometry import Hull, Polytope, box_axes, dist_to_hull, rank_points
from .supconv import GAP_TOL, SupConvSpec, level_sets, phi_eval
from .tent import TentSpec, psi_on_grid

INTERIOR_TOL = 1e-9  # C's membership tolerance, and xi's least margin inside it


class CertificateSearchError(RuntimeError):
    """The pipeline's candidate failed a check, or no candidate was found."""


class _InfEstimate(NamedTuple):
    value: float
    argmin: np.ndarray
    step: float

    def named(self, name: str) -> str:
        return f"estimate {name} = {float(self.value)!r} at {self.argmin.tolist()}"


def _estimate_inf(
    f: TestFunction, hull: Hull, delta: float, resolution: int,
    pts: np.ndarray | None = None, vals: np.ndarray | None = None, *, name: str,
) -> _InfEstimate:
    """Grid minimum of f over the delta-inflated ``hull``, with the grid
    step; exact for singleton regions.  The estimate proves no bound; the
    checks that read it carry floors of step times f's Lipschitz estimate,
    sized for a grid minimum's error.

    ``pts``, the region's grid, and ``vals``, f there, are computed when
    the caller does not already have them.  ``name`` names the estimate in
    the SpecInvariantError raised when f is +inf on the whole grid.
    """
    if pts is None:
        pts = hull.grid(delta, resolution)
    if vals is None:
        vals = f_values(f, pts)
    ranked = rank_points(vals, pts)
    if not len(ranked):
        raise SpecInvariantError(
            f"estimate {name}: f is +inf at all {len(pts)} points of its grid"
        )
    idx = ranked[0]
    step = box_axes(hull.V.min(axis=0) - delta, hull.V.max(axis=0) + delta, resolution)[1]
    return _InfEstimate(float(vals[idx]), pts[idx].copy(), step)


def choose_params(ps: ProblemSpec) -> PipelineParams:
    """Deterministic parameter rule (see ``_choose_params``), from fresh
    estimates of the infima of f over A and over the inflated B."""
    inf_a = _estimate_inf(ps.f, Hull(ps.A, ps.A), 0.0, ps.resolution, name="inf_A")
    inf_bd = _estimate_inf(ps.f, Hull(ps.B, ps.B), ps.delta, ps.resolution, name="inf_B_inflated")
    return _choose_params(ps, inf_a, inf_bd)


def _choose_params(ps: ProblemSpec, inf_a: _InfEstimate, inf_bd: _InfEstimate) -> PipelineParams:
    """Deterministic parameter rule, given the estimates ``inf_a`` of the
    infimum of f over A and ``inf_bd`` over the inflated B.

    s1 sits halfway into the admissible open interval above s, nudged by a
    further quarter on collision with r.  delta1 walks the dyadic family
    delta * (1 - 2^-j) upward until the Lipschitz constant
    K = (max(r, s1) - mu) / delta1 clears its strict bound with margin.
    """
    r = inf_a.value
    room = min(ps.epsilon, ps.epsilon * ps.delta, inf_bd.value - ps.s)
    if room <= 0:
        raise SpecInvariantError(
            "s must lie strictly below the infimum of f over the inflated B "
            f"(s = {ps.s!r}; {inf_bd.named('inf_B_inflated')})"
        )
    s1 = ps.s + 0.5 * room
    if abs(s1 - r) <= 1e-12 * (1.0 + abs(r)):
        s1 = ps.s + 0.75 * room
        if abs(s1 - r) <= 1e-12 * (1.0 + abs(r)):
            raise SpecInvariantError("could not separate s1 from r")

    target = (max(r, ps.s) - ps.mu) / ps.delta + ps.epsilon
    for j in range(1, 61):
        delta1 = ps.delta * (1.0 - 2.0 ** (-j))
        K = (max(r, s1) - ps.mu) / delta1
        if K < target - 1e-9:
            return PipelineParams(r=float(r), s1=float(s1), delta1=float(delta1), K=float(K))
    raise SpecInvariantError("no admissible inflation split for the Lipschitz bound")


def _c_radii(delta: float) -> tuple[float, float]:
    """The largest floats d with fl(d - delta) <= 1e-9 (in C) and with
    fl(d - delta) < -1e-9 (interior to C): rounding is monotone, so
    ``Hull.within`` at them is exactly ``classify_point``'s rule at
    1e-9."""
    radii = []
    for r, ok in ((delta + INTERIOR_TOL, lambda d: d - delta <= INTERIOR_TOL),
                  (delta - INTERIOR_TOL, lambda d: d - delta < -INTERIOR_TOL)):
        while not ok(r):
            r = np.nextafter(r, -np.inf)
        while ok(np.nextafter(r, np.inf)):
            r = np.nextafter(r, np.inf)
        radii.append(float(r))
    return radii[0], radii[1]


def restrict_f(f: TestFunction, A: Polytope, B: Polytope, delta: float) -> TestFunction:
    """f made +inf outside C (boundary kept inside); subgradients delegate
    to f at interior points only, so boundary use fails loudly."""
    return _restrict_to(f, Hull(A, B), delta)


def _restrict_to(f: TestFunction, hull: Hull, delta: float) -> TestFunction:
    """``restrict_f`` on the delta-inflation of ``hull``, whose screen
    decides values and subgradients at the radii of ``_c_radii``."""
    outer, inner = _c_radii(delta)

    return TestFunction(
        fid=f"{f.fid}|restricted_to_inflated_hull",
        params={"base": {"id": f.fid, "params": f.params}, "delta": delta},
        dim=f.dim,
        rows=lambda X: _on_rows(f.rows, X, hull.within(X, outer), np.inf),
        subgrad_rows=lambda X: _on_rows(f.subgrad_rows, X, hull.within(X, inner), np.nan),
    )


def run(ps: ProblemSpec) -> Certificate:
    """Execute the full pipeline and return its certificate.

    The C grid and the hull grid are each evaluated once, into tables that
    every later stage reads.  One descent gives the Ekeland point u, and
    one pair search around it gives the candidate (xi, p).  Two quantities
    are closed forms, not searches: the smoothing's margin below mu on the
    boundary of C, K (delta - delta1) from its Lipschitz envelope, and the
    level-set separation c, the least of |r - s1| and the largest c at
    which the level sets at y are disjoint (``LevelSets.threshold``).  Raises
    CertificateSearchError naming every check the candidate fails, or
    wrapping the pair search's failure, and SpecInvariantError when the
    problem data breaks a hypothesis (including a positive grid infimum
    of g, which signals a misestimated r).
    """
    A, B, delta = ps.A, ps.B, ps.delta
    hull = Hull(A, B)

    hull_grid = hull.grid(0.0, ps.resolution)
    c_grid = hull.grid(delta, ps.resolution)

    inf_a = _estimate_inf(ps.f, Hull(A, A), 0.0, ps.resolution, name="inf_A")
    inf_c = _estimate_inf(ps.f, hull, delta, ps.resolution, c_grid, name="inf_C")
    inf_bd = _estimate_inf(ps.f, Hull(B, B), delta, ps.resolution, name="inf_B_inflated")
    hull_f = f_values(ps.f, hull_grid)
    inf_hull = _estimate_inf(ps.f, hull, 0.0, ps.resolution, hull_grid, hull_f, name="inf_hull")
    if not ps.mu < inf_c.value:
        raise SpecInvariantError(
            f"mu must lie strictly below inf of f over C (mu = {ps.mu!r}; {inf_c.named('inf_C')})"
        )

    params = _choose_params(ps, inf_a, inf_bd)
    r, s1, delta1, K = params.r, params.s1, params.delta1, params.K
    tent = TentSpec(A, B, r, s1)
    sc = SupConvSpec(tent, K)

    # phi_K is the Pasch-Hausdorff envelope of the tent, so phi_K(x) <=
    # max psi - K d(x, [A,B]) = max(r, s1) - K delta on the boundary of C;
    # the margin below mu there is K (delta - delta1) > 0, up to rounding
    boundary_margin = ps.mu - (max(r, s1) - K * delta)
    if boundary_margin <= 0:
        raise SpecInvariantError(
            f"smoothing fails to drop below mu on the boundary of C "
            f"(margin {boundary_margin:.3e})"
        )

    f1 = _restrict_to(ps.f, hull, delta)
    lip = _lipschitz_estimate(ps.f, hull_grid, hull_f)

    # the C table also holds the argmin of f over A, where g is about 0
    c_pts = c_grid
    if not np.all(c_grid == inf_a.argmin, axis=1).any():
        c_pts = np.vstack([c_grid, inf_a.argmin[None, :]])
    c_table = g_table(f1, sc, c_pts)
    grid_inf_g = float(np.min(c_table.g))
    if grid_inf_g > 1e-6:
        raise SpecInvariantError(
            f"grid infimum of g is {grid_inf_g:.3e} > 0; r is misestimated"
        )

    ek = descend_g(c_table, f1, sc, delta, seed=ps.seed)

    eps_bar = 0.5 * min(
        inf_c.value - ps.mu, inf_bd.value - s1, (delta - delta1) / (1.0 + 1.0 / K)
    )
    radius = min(ek.eps, eps_bar, delta / 4.0)
    try:
        pair = fuzzy_pair(ek, f1, sc, search_radius=radius, grid=c_pts, grid_phi=c_table.phi)
    except FuzzyPairError as exc:
        raise CertificateSearchError(f"pair search failed: {exc}") from exc

    xi, p = pair.x, pair.p
    failures = []
    evp = evp_check(c_table, ek.u, ek.value, ek.eps)
    if not evp.ok:
        failures.append(f"domination check: worst margin {evp.worst:.3e} < -{EVP_TOL:.0e}")
    if pair.separation >= eps_bar:
        failures.append(f"pair separation {pair.separation:.3e} >= {eps_bar:.3e}")
    gap_xy = f_eval(f1, pair.x) - phi_eval(pair.y, sc).value
    if gap_xy >= eps_bar:
        failures.append(f"value gap {gap_xy:.3e} >= {eps_bar:.3e}")
    interior_margin = delta - dist_to_hull(xi, A, B).d
    if not interior_margin > INTERIOR_TOL:
        failures.append("xi is not interior to C")

    levels = level_sets(pair.y, sc, s1, hull_grid, psi_on_grid(tent, hull_grid))
    c_n = min(abs(r - s1), levels.threshold)
    if not c_n > 0:
        failures.append("level sets could not be separated at y")

    checks = inequalities(ps, r, f_eval(ps.f, xi), p, inf_hull.value)
    floors = {
        "value_localization": inf_hull.step * lip,
        "subgradient_norm": 0.0,
        "mean_value_increment": 0.0 if A.num_vertices == 1 else inf_a.step * lip,
    }
    for name, chk in checks.items():
        if not chk.slack > floors[name]:
            failures.append(f"{name}: slack {chk.slack:.3e} <= floor {floors[name]:.3e}")
    if failures:
        raise CertificateSearchError(
            f"no valid certificate at u = {ek.u.tolist()}:\n  " + "\n  ".join(failures)
        )

    diagnostics = {
        "eps_n": ek.eps,
        "g_value": ek.value,
        "residual": pair.residual,
        "separation": pair.separation,
        "u": [float(v) for v in ek.u],
        "y": [float(v) for v in pair.y],
        "q": [float(v) for v in pair.q],
        "interior_margin": float(interior_margin),
        "level_separation_c": float(c_n),
        "boundary_margin": boundary_margin,
        "grid_inf_g": grid_inf_g,
        "evp_worst": evp.worst,
        "eps_bar": float(eps_bar),
        "inf_estimates": {
            "inf_A": inf_a.value,
            "inf_C": inf_c.value,
            "inf_B_inflated": inf_bd.value,
            "inf_hull": inf_hull.value,
        },
        "slack_floors": floors,
        "lipschitz_estimate": lip,
    }
    tolerances = {
        "interior_tol": INTERIOR_TOL,
        "evp_tol": EVP_TOL,
        "residual_factor": RESIDUAL_FACTOR,
        "grid_resolution": ps.resolution,
        "smoothing_gap_tol": GAP_TOL,
    }
    return Certificate(
        xi=xi.copy(),
        p=p.copy(),
        checks=checks,
        params=params,
        diagnostics=diagnostics,
        tolerances=tolerances,
    )

