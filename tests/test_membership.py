"""Membership in C, on its boundary, and in the domain of a restricted
member: every decision reads one ``Hull`` screen per set, and each agrees
with the exact per-point rule it replaced."""

import json
from pathlib import Path

import numpy as np
import pytest

import mdmvi.mdmvt as mdmvt
from mdmvi import Polytope, ProblemSpec, f_subgrad, linear, quadratic, restrict_f, restricted
from mdmvi.functions import f_values
from mdmvi.geometry import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    Hull,
    classify_point,
    dist_to_hull,
    sample_set,
)
from mdmvi.mdmvt import boundary_samples

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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_boundary_samples_match_the_per_candidate_search(name, monkeypatch):
    ps = ProblemSpec.from_json_dict(SPECS[name])
    hull_pts = sample_set(ps.A, ps.B, 0.0, ps.resolution)  # run's hull grid
    want = reference_boundary_samples(ps.A, ps.B, ps.delta, hull_pts)
    hull = Hull(ps.A, ps.B)
    projections = []
    real = mdmvt.dist_to_hull
    monkeypatch.setattr(mdmvt, "dist_to_hull", lambda *a: projections.append(a) or real(*a))
    got = boundary_samples(hull, ps.delta, hull_pts)
    assert len(want) > 0
    assert np.array_equal(got, want)
    assert projections == []


@pytest.mark.parametrize("name", ["plane_2d", "multivertex_2d", "pair_3d"])
def test_boundary_samples_bound_their_candidates_once(name, monkeypatch):
    ps = ProblemSpec.from_json_dict(SPECS[name])
    hull, hull_pts = Hull(ps.A, ps.B), sample_set(ps.A, ps.B, 0.0, ps.resolution)
    calls = []
    real = Hull._bounds

    def spy(self, X):
        calls.append(len(X))
        return real(self, X)

    monkeypatch.setattr(Hull, "_bounds", spy)
    boundary_samples(hull, ps.delta, hull_pts)
    assert len(calls) == 1


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
