"""Membership in C and in the domain of a restricted member: every
decision reads one ``Hull`` screen per set, and each agrees with the exact
per-point rule it replaced.  On the boundary of C, the smoothing's
closed-form margin below mu holds at reference points there."""

import json
from pathlib import Path

import numpy as np
import pytest

from mdmvi import Polytope, ProblemSpec, f_subgrad, linear, quadratic, restrict_f, restricted
from mdmvi.functions import f_values
from mdmvi.geometry import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    classify_point,
    dist_to_hull,
    sample_set,
)
from mdmvi.mdmvt import choose_params
from mdmvi.supconv import SupConvSpec, phi_on_grid
from mdmvi.tent import TentSpec

from boundary_reference import reference_boundary_samples
from test_multivertex import MULTIVERTEX_2D

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = sorted((ROOT / "src" / "mdmvi" / "problems").glob("*.json"))


def _rotated_plane(theta: float) -> dict:
    """plane_2d turned about the origin by ``theta``, its linear f with it."""
    data = json.loads((ROOT / "src" / "mdmvi" / "problems" / "plane_2d.json").read_text())
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    data["A"] = (np.asarray(data["A"]) @ rot.T).tolist()
    data["B"] = (np.asarray(data["B"]) @ rot.T).tolist()
    data["function"]["params"]["a"] = (rot @ np.asarray(data["function"]["params"]["a"])).tolist()
    return data


SPECS = {p.stem: json.loads(p.read_text()) for p in PROBLEMS}
SPECS["plane_2d@rot0.3"] = _rotated_plane(0.3)
SPECS["multivertex_2d"] = MULTIVERTEX_2D
SPECS["pair_3d"] = json.loads((ROOT / "benchmarks" / "specs" / "pair_3d.json").read_text())


BOUNDARY_SPECS = dict(
    SPECS, circle8_2d=json.loads((ROOT / "tests" / "specs" / "circle8_2d.json").read_text())
)


@pytest.mark.parametrize("name", sorted(BOUNDARY_SPECS))
def test_closed_form_boundary_margin_at_the_reference_samples(name):
    """``run``'s boundary decay margin mu - (max(r, s1) - K delta) bounds
    mu - phi_K at every reference point of the boundary of C, is attained
    there within rounding, and f stays above phi_K there."""
    ps = ProblemSpec.from_json_dict(BOUNDARY_SPECS[name])
    params = choose_params(ps)
    r, s1, K = params.r, params.s1, params.K
    sc = SupConvSpec(TentSpec(ps.A, ps.B, r, s1), K)
    hull_pts = sample_set(ps.A, ps.B, 0.0, ps.resolution)  # run's hull grid
    pts = reference_boundary_samples(ps.A, ps.B, ps.delta, hull_pts)
    assert len(pts) > 0
    phi = phi_on_grid(sc, pts)
    closed = ps.mu - (max(r, s1) - K * ps.delta)
    tol = 1e-12 * (1.0 + abs(ps.mu) + K * ps.delta)
    margins = ps.mu - phi
    assert closed > 0.0
    assert margins.min() >= closed - tol
    assert abs(margins.min() - closed) <= tol
    f = f_values(ps.f, pts)
    finite = np.isfinite(f)
    assert (f[finite] - phi[finite] > 0.0).all()


def _near_the_boundary(A: Polytope, B: Polytope, delta: float, rng) -> np.ndarray:
    """Random points, and points at distance delta + o (o in 0, +-1e-12,
    +-1e-9, +-2e-9) along rays from the hull's nearest points."""
    dim = A.dim
    V = np.vstack([A.vertices, B.vertices])
    lo, hi = V.min(axis=0) - 2 * delta, V.max(axis=0) + 2 * delta
    pts = [lo + (hi - lo) * rng.random((150, dim))]
    for x0 in lo + (hi - lo) * rng.random((40, dim)):
        d, y, _ = dist_to_hull(x0, A, B)
        if d < 1e-3:
            continue
        u = (x0 - y) / d
        offsets = np.array([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9])
        pts.append(y + (delta + offsets)[:, None] * u)
    return np.vstack(pts)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_restrict_f_follows_the_exact_classification(dim):
    """Values are finite where ``classify_point`` does not call a point
    exterior at 1e-9, and subgradients exist where it calls it interior."""
    rng = np.random.default_rng(40 + dim)
    A = Polytope(rng.normal(size=(dim + 1, dim)))
    B = Polytope(rng.normal(size=(2, dim)) + 2.0)
    delta = 0.4
    f1 = restrict_f(quadratic(np.eye(dim), np.zeros(dim)), A, B, delta)
    X = _near_the_boundary(A, B, delta, rng)
    cls = [classify_point(x, A, B, delta, tol=1e-9) for x in X]
    assert set(cls) == {INTERIOR, BOUNDARY, EXTERIOR}
    assert np.array_equal(np.isfinite(f_values(f1, X)), [c != EXTERIOR for c in cls])
    assert [len(f_subgrad(f1, x)) > 0 for x in X] == [c == INTERIOR for c in cls]


TRIANGLE = Polytope([[0.0, 0.0], [1.0, 0.0], [0.3, 1.0]])


@pytest.mark.parametrize(
    "point,interior",
    [
        ((0.65, 0.5), False),  # midpoint of the slanted edge
        ((0.3, 1.0), False),  # a vertex
        ((0.4, 0.3), True),
    ],
)
def test_restricted_triangle_exposes_subgradients_inside_only(point, interior):
    f = restricted(linear([1.0, 2.0]), TRIANGLE)
    assert dist_to_hull(point, TRIANGLE, TRIANGLE).d < 1e-15
    got = [g.tolist() for g in f_subgrad(f, point)]
    assert got == ([[1.0, 2.0]] if interior else [])


def test_restricted_tetrahedron_face_is_boundary():
    T = Polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 1.0]])
    f = restricted(linear([1.0, 2.0, 3.0]), T)
    on_face = (T.vertices[1] + T.vertices[2] + T.vertices[3]) / 3.0
    assert f_subgrad(f, on_face) == []
    inside = T.vertices.mean(axis=0)
    assert [g.tolist() for g in f_subgrad(f, inside)] == [[1.0, 2.0, 3.0]]


@pytest.mark.parametrize("depth,interior", [(0.9e-9, False), (1.1e-9, True)])
def test_restricted_1d_interior_starts_1e_9_from_an_endpoint(depth, interior):
    f = restricted(linear([3.0]), Polytope([[0.0], [1.0]]))
    for x in (depth, 1.0 - depth):
        assert [g.tolist() for g in f_subgrad(f, [x])] == ([[3.0]] if interior else [])
