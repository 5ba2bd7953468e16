import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmvi import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    DimensionMismatch,
    Polytope,
    classify_point,
    dist_to_hull,
    inf_linear,
    sample_set,
)
from mdmvi import geometry
from mdmvi.geometry import (
    Hull,
    affine_frame,
    box_axes,
    as_point,
    hull_vertex_matrix,
    rank_points,
    row_norms,
)

from boundary_reference import _direction_net
from helpers import hull_diameter

finite_coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def brute_hull_dist(x, A, B, steps=2000):
    """Dense scan over the interpolation parametrization of [A,B]."""
    V = np.vstack([A.vertices, B.vertices])
    if V.shape[0] == 1:
        return float(np.linalg.norm(x - V[0]))
    best = np.inf
    lam = np.linspace(0.0, 1.0, steps)
    for i in range(V.shape[0]):
        for j in range(V.shape[0]):
            pts = lam[:, None] * V[i] + (1 - lam)[:, None] * V[j]
            best = min(best, float(np.min(np.linalg.norm(pts - x, axis=1))))
    return best


class TestPolytope:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Polytope(np.zeros((0, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Polytope([[np.inf]])

    def test_json_roundtrip(self):
        P = Polytope([[0.0, 1.0], [2.0, 3.0]])
        assert Polytope.from_json(P.to_json()).vertices.tolist() == P.vertices.tolist()


class TestDistToHull:
    def test_inside_segment(self, seg_a, seg_b):
        d, y, c = dist_to_hull(0.5, seg_a, seg_b)
        assert d <= 1e-9
        assert abs(y[0] - 0.5) <= 1e-9
        assert abs(c.lam - 0.5) <= 1e-9

    def test_nearest_endpoint(self, seg_a, seg_b):
        d, y, _ = dist_to_hull(2.0, seg_a, seg_b)
        assert abs(d - 1.0) <= 1e-8
        assert abs(y[0] - 1.0) <= 1e-8

    def test_orthogonal_projection(self):
        A = Polytope([[0.0, 0.0]])
        B = Polytope([[2.0, 0.0]])
        d, y, _ = dist_to_hull([1.0, 1.0], A, B)
        assert abs(d - 1.0) <= 1e-8
        assert np.allclose(y, [1.0, 0.0], atol=1e-8)

    def test_dimension_mismatch(self, seg_a):
        with pytest.raises(DimensionMismatch):
            dist_to_hull([1.0, 2.0], seg_a, seg_a)

    def test_coords_represent_projection(self):
        A = Polytope([[0.0, 0.0], [0.0, 1.0]])
        B = Polytope([[2.0, 0.0], [2.0, 1.0]])
        d, y, c = dist_to_hull([3.0, 0.5], A, B)
        assert np.allclose(c.point(A, B), y, atol=1e-8)
        assert abs(d - 1.0) <= 1e-7

    @pytest.mark.parametrize("x", [-0.7, 0.0, 0.31, 0.99, 1.5])
    def test_matches_brute_scan_1d(self, seg_a, seg_b, x):
        d = dist_to_hull(x, seg_a, seg_b).d
        assert abs(d - brute_hull_dist(np.array([x]), seg_a, seg_b)) <= 1e-3

    def test_matches_brute_scan_2d(self):
        rng = np.random.default_rng(0)
        A = Polytope([[0.0, 0.0], [1.0, 0.2]])
        B = Polytope([[2.0, 1.0], [0.5, 1.5]])
        for _ in range(10):
            x = rng.uniform(-1.5, 3.0, size=2)
            d = dist_to_hull(x, A, B).d
            assert abs(d - brute_hull_dist(x, A, B)) <= 2e-3


def test_projection_regression_3d():
    # the nearest point lies on a facet of a 6-vertex hull, where an
    # inexact projection reads 0.33427
    A = Polytope([[-0.71, -0.79, -1.7], [0.03, 1.38, -1.34], [1.45, 0.35, 2.17],
                  [0.31, -0.41, 0.17]])
    B = Polytope([[-0.79, -0.44, -0.03], [0.33, -1.56, 0.91]])
    d, y, c = dist_to_hull([0.43, -0.42, -0.35], A, B)
    assert d == pytest.approx(0.3309828621798, abs=1e-10)
    assert np.allclose(c.point(A, B), y, atol=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    m_a=st.integers(1, 5),
    m_b=st.integers(1, 5),
    inside=st.booleans(),
    shared=st.booleans(),
)
def test_projection_meets_its_optimality_certificate(seed, dim, m_a, m_b, inside, shared):
    """The nearest point y is feasible (weights >= 0, summing to one, that
    reproduce y) and optimal: <y - x, v - y> >= 0 at every vertex v."""
    rng = np.random.default_rng(seed)
    A = Polytope(rng.normal(size=(m_a, dim)))
    B = A if shared else Polytope(rng.normal(size=(m_b, dim)))
    V = np.vstack([A.vertices, B.vertices])
    x = rng.dirichlet(np.ones(len(V))) @ V if inside else 2.0 * rng.normal(size=dim)
    d, y, c = dist_to_hull(x, A, B)
    scale = max(1.0, float(np.max(np.sum((V - x) ** 2, axis=1))))
    w = c.weights()
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.allclose(w @ V, y, rtol=0.0, atol=1e-12 * scale)
    assert d == pytest.approx(np.linalg.norm(x - y), abs=1e-15)
    assert float(np.min((V - y) @ (y - x))) >= -1e-12 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    x=st.lists(finite_coord, min_size=2, max_size=2),
    y=st.lists(finite_coord, min_size=2, max_size=2),
)
def test_distance_triangle_property(x, y):
    A = Polytope([[0.0, 0.0], [1.0, 0.0]])
    B = Polytope([[0.5, 1.0]])
    dx = dist_to_hull(np.array(x), A, B).d
    dy = dist_to_hull(np.array(y), A, B).d
    assert abs(dx - dy) <= np.linalg.norm(np.array(x) - np.array(y)) + 1e-8


class TestClassifyPoint:
    @pytest.mark.parametrize(
        "x,expected",
        [(1.4, INTERIOR), (1.5, BOUNDARY), (1.6, EXTERIOR)],
    )
    def test_ternary(self, seg_a, seg_b, x, expected):
        assert classify_point(x, seg_a, seg_b, 0.5, tol=1e-9) == expected

    def test_rejects_bad_delta(self, seg_a, seg_b):
        with pytest.raises(ValueError):
            classify_point(0.0, seg_a, seg_b, 0.0)

    def test_boundary_members_sit_at_delta(self, seg_a, seg_b):
        pts = sample_set(seg_a, seg_b, 0.5, 41)
        for x in pts:
            cls = classify_point(x, seg_a, seg_b, 0.5, tol=1e-7)
            d = dist_to_hull(x, seg_a, seg_b).d
            if cls == BOUNDARY:
                assert abs(d - 0.5) <= 1e-7
            if d < 0.5 - 1e-7:
                assert cls == INTERIOR


class TestInfLinear:
    def test_examples(self, seg_a, seg_b):
        S = Polytope([[0.0], [1.0]])
        assert inf_linear([1.0], S) == 0.0
        assert inf_linear([-1.0], S) == -1.0
        T = Polytope([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]])
        assert inf_linear([1.0, 2.0], T) == 0.0

    def test_grid_minimum_attained_at_vertices(self):
        S = Polytope([[0.0], [1.0]])
        pts = sample_set(S, S, 0.0, 11)
        for p in ([2.0], [-0.7]):
            grid_min = min(float(np.asarray(p) @ z) for z in pts)
            assert grid_min == inf_linear(p, S)


class TestSampleSet:
    def test_unit_segment(self, seg_a, seg_b):
        pts = sample_set(seg_a, seg_b, 0.0, 5)
        assert sorted(v[0] for v in pts) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_inflated_segment(self, seg_a, seg_b):
        pts = sample_set(seg_a, seg_b, 0.5, 5)
        vals = sorted(v[0] for v in pts)
        assert vals[0] == -0.5 and vals[-1] == 1.5
        assert 0.0 in vals and 1.0 in vals  # vertices are always included

    def test_degenerate_axis(self):
        A = Polytope([[0.0, 0.0]])
        B = Polytope([[1.0, 0.0]])
        pts = sample_set(A, B, 0.0, 3)
        assert sorted(map(tuple, pts)) == [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]

    def test_determinism(self, seg_a, seg_b):
        a = sample_set(seg_a, seg_b, 0.3, 17)
        b = sample_set(seg_a, seg_b, 0.3, 17)
        assert np.array_equal(a, b)

    def test_rejects_small_resolution(self, seg_a, seg_b):
        with pytest.raises(ValueError):
            sample_set(seg_a, seg_b, 0.0, 1)

    def test_membership_consistent_with_lp(self, seg_a, seg_b, unit_tent):
        from mdmvi.tent import psi_eval

        pts = sample_set(seg_a, seg_b, 0.25, 21)
        for x in pts:
            d = dist_to_hull(x, seg_a, seg_b).d
            feasible = np.isfinite(psi_eval(x, unit_tent).value)
            assert (d <= 1e-6) == feasible


def test_hull_inflation_descriptor(seg_a, seg_b):
    assert classify_point(1.4, seg_a, seg_b, 0.5) == INTERIOR
    assert classify_point(1.7, seg_a, seg_b, 0.5) == EXTERIOR
    assert hull_diameter(seg_a, seg_b) == 1.0


def test_as_point_validation():
    with pytest.raises(ValueError):
        as_point([np.nan])
    assert as_point(2.5).tolist() == [2.5]


def test_as_point_returns_a_float64_point_itself():
    x = np.array([0.5, -1.0])
    assert as_point(x, 2) is x
    # other dtypes and array-likes are converted, not aliased
    assert as_point(np.array([1, 2]), 2).dtype == np.float64
    assert as_point(np.array([1.0, 2.0], dtype=np.float32), 2).dtype == np.float64
    assert as_point([1.0, 2.0]).tolist() == [1.0, 2.0]


def _rank_by_tuple_key(vals, pts):
    finite = np.nonzero(np.isfinite(vals))[0]
    return sorted(finite, key=lambda i: (vals[i], tuple(pts[i])))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(40))
def test_rank_points_orders_as_the_tuple_key(seed, dim):
    # few distinct levels, so values and coordinates tie often; zeros of
    # both signs and non-finite values mixed in
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 60))
    levels = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
    vals = rng.choice(np.append(levels, [np.inf, -np.inf, np.nan]), size=m)
    pts = rng.choice(levels, size=(m, dim))
    got = rank_points(vals, pts)
    assert got.tolist() == _rank_by_tuple_key(vals, pts)


def test_rank_points_treats_negative_zero_as_zero():
    vals = np.array([0.0, -0.0, 0.0, np.inf])
    pts = np.array([[0.0, 1.0], [0.0, 1.0], [-0.0, 0.0], [-1.0, 0.0]])
    # 2 first on its point; 0 and 1 tie on the key and keep their order
    assert rank_points(vals, pts).tolist() == [2, 0, 1]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(10))
def test_row_norms_have_the_bits_of_single_norms(seed, dim):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((500, dim)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
    ref = np.array([np.linalg.norm(x) for x in X])
    assert row_norms(X).tobytes() == ref.tobytes()
    # stacked tables of rows, as the Lipschitz estimate passes them
    assert row_norms(X.reshape(50, 10, dim)).tobytes() == ref.tobytes()
    assert row_norms(X[:0]).shape == (0,)


@pytest.mark.parametrize("x", [np.array([[0.0, 1.0]]), [[0.0], [1.0]], np.zeros((2, 2))])
def test_as_point_rejects_more_than_one_axis(x):
    with pytest.raises(ValueError, match="one-dimensional"):
        as_point(x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("as_array", [True, False])
def test_as_point_rejects_non_finite_coordinates(bad, as_array):
    x = np.array([0.0, bad]) if as_array else [0.0, bad]
    with pytest.raises(ValueError, match="non-finite"):
        as_point(x)


@pytest.mark.parametrize("x", [np.array([0.0, 1.0, 2.0]), [0.0, 1.0, 2.0], 1.0])
def test_as_point_rejects_a_wrong_dimension(x):
    with pytest.raises(DimensionMismatch):
        as_point(x, 2)


def _flat_pair(rng, dim, m_a, m_b, flat, shared):
    """Two vertex sets, on a random affine subspace when ``flat``, sharing
    a vertex when ``shared``; returns them with the subspace's origin and
    spanning rows."""
    k = int(rng.integers(1, dim)) if flat and dim > 1 else dim
    span = rng.normal(size=(k, dim))
    origin = rng.normal(size=dim)
    A = Polytope(origin + rng.normal(size=(m_a, k)) @ span)
    B_rows = origin + rng.normal(size=(m_b, k)) @ span
    if shared:
        B_rows[0] = A.vertices[-1]
    return A, Polytope(B_rows), origin, span


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    m_a=st.integers(1, 5),
    m_b=st.integers(1, 5),
    flat=st.booleans(),
    shared=st.booleans(),
    radius=st.sampled_from([0.0, 1e-9, 0.05, 0.5]),
)
def test_within_equals_the_projection_comparison(seed, dim, m_a, m_b, flat, shared, radius):
    """The batched screen decides every row exactly as the scalar
    projection does, including rows at the radius and 1e-12 either side of
    it, rows inside, at vertices, outside, and outside on a flat hull's
    span."""
    rng = np.random.default_rng(seed)
    A, B, origin, span = _flat_pair(rng, dim, m_a, m_b, flat, shared)
    V = hull_vertex_matrix(A, B)
    rows = [rng.dirichlet(np.ones(len(V))) @ V for _ in range(4)]
    rows += list(V)
    rows += list(origin + 2.0 * rng.normal(size=(6, dim)))
    rows += list(origin + 2.0 * rng.normal(size=(3, len(span))) @ span)
    _assert_within_is_the_projection_comparison(A, B, rows, rows[-9:], radius)


def _assert_within_is_the_projection_comparison(A, B, rows, rays, radius):
    """``Hull(A, B).within`` at ``radius`` decides the rows, and for each
    row of ``rays`` off the hull the points at the radius and 1e-12 either
    side along the ray from its nearest hull point, as ``dist_to_hull``."""
    rows = list(rows)
    for x0 in list(rays):
        d, y, _ = dist_to_hull(x0, A, B)
        if d > 1e-6:
            for target in (radius - 1e-12, radius, radius + 1e-12):
                if target >= 0.0:
                    rows.append(y + (x0 - y) * (target / d))
    X = np.array(rows)
    want = [dist_to_hull(x, A, B).d <= radius for x in X]
    assert Hull(A, B).within(X, radius).tolist() == want


def _circle(m, shift):
    ang = np.random.default_rng(m).uniform(0.0, 2 * np.pi, m)
    return 0.3 * np.stack([np.cos(ang), np.sin(ang)], axis=1) + [shift, 0.0]


_CUBE = np.array(list(np.ndindex(2, 2, 2)), dtype=float)
_TILT = np.array([[1.0, 0.2, -0.3], [0.1, 0.8, 0.5]])  # a plane in 3-D
DEGENERATE_HULLS = {
    # every facet holds four coplanar vertices
    "unit_cube": (_CUBE[_CUBE[:, 2] == 0], _CUBE[_CUBE[:, 2] == 1]),
    # three collinear vertices on the lower edge
    "collinear_edge_2d": ([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]], [[1.0, 0.0], [0.3, 0.8]]),
    "circle16_2d": (_circle(16, 0.0), _circle(16, 2.0)),
    "flat_in_3d": (
        np.array([[0.0, 0.0], [1.0, 0.0]]) @ _TILT + 0.1,
        np.array([[0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]) @ _TILT + 0.1,
    ),
    "one_vertex": ([[0.2, -0.1]], [[0.2, -0.1]]),
    "shared_vertices": ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    # (0.25, -3e-10) lies 3e-10 below the lower edge: the lines through any
    # two of the three lower vertices hold all three within the facet tolerance
    "near_collinear_edge_2d": ([[0.0, 0.0], [0.25, -3e-10]], [[1.0, 0.0], [0.5, 1.0]]),
    # the lower face folds 1e-9 along the diagonal from (0, 0) to (1, 1)
    "near_coplanar_face_3d": ([[0, 0, 0], [1, 0, 0], [1, 1, -1e-9]], [[0, 1, 0], [0.5, 0.5, 1]]),
}
# rows in the sliver between a true lower facet and the plane through the
# first vertices, which holds all the lower vertices within the tolerance
EXTRA_ROWS = {
    "near_collinear_edge_2d": [[0.9, -9e-10], [0.6, -5e-10], [0.9, -3e-10]],
    "near_coplanar_face_3d": [[0.05, 0.95, -8e-10], [0.15, 0.85, -6e-10], [0.1, 0.9, -6e-10]],
}


def _degenerate_rows(name):
    """A degenerate hull's pair, its rows, and its rows outside it: inside
    rows, vertices, midpoints and outside rows, off the hull's span and on
    it."""
    A, B = (Polytope(np.array(v, dtype=float)) for v in DEGENERATE_HULLS[name])
    V = hull_vertex_matrix(A, B)
    rng = np.random.default_rng(len(V))
    rows = list(rng.dirichlet(np.ones(len(V)), size=8) @ V) + list(V)
    rows += list(0.5 * (V[:-1] + V[1:])) + EXTRA_ROWS.get(name, [])
    center, vt, k = affine_frame(V)
    outside = center + 1.5 * rng.normal(size=(12, V.shape[1]))
    outside = np.vstack([outside, center + (outside - center) @ vt[:k].T @ vt[:k]])  # on the span
    return A, B, rows + list(outside), outside


@pytest.mark.parametrize("radius", [0.0, 2.5e-10, 1e-9, 0.05, 0.5])
@pytest.mark.parametrize("name", sorted(DEGENERATE_HULLS))
def test_within_is_the_projection_comparison_on_degenerate_facets(name, radius):
    """Coplanar, collinear and nearly collinear boundary vertices, many
    vertices, a flat hull in 3-D, a single vertex and shared vertices:
    inside rows, vertices, midpoints and outside rows, off the hull's span
    and on it, with rows at the radius and 1e-12 either side of it."""
    _assert_within_is_the_projection_comparison(*_degenerate_rows(name), radius)


@pytest.mark.parametrize("radius", [0.0, 2.5e-10, 1e-9, 0.05, 0.5])
@pytest.mark.parametrize("name", sorted(DEGENERATE_HULLS))
def test_within_does_not_rest_on_the_weight_map(name, radius, monkeypatch):
    """With the screen's weight map scaled by 1 + 1e-9, 1e-9 off and far
    above the margin, the decisions on the rows above stay the projection
    comparison: clipped, renormalized weights still give hull points, so
    the bounds stay bounds, and a row they no longer settle falls in the
    band that the exact projection decides."""
    real = geometry.face_frames

    def scaled(*args):
        verts, perp, bary, grad = real(*args)
        return verts, perp, bary * (1.0 + 1e-9), grad

    monkeypatch.setattr(geometry, "face_frames", scaled)
    _assert_within_is_the_projection_comparison(*_degenerate_rows(name), radius)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_facet_planes_hold_every_facet_of_qhull(seed, dim):
    """Cross-check against scipy's Qhull, where it is installed (skipped
    without it): each facet plane of the hull of random points, or of a
    cube, is among ``Hull``'s planes, so the inside test is bounded by
    every facet.  Random points are never nearly coplanar; the degenerate
    cases above cover those without scipy."""
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(seed)
    V = _CUBE[:, :dim] if seed == 0 else rng.normal(size=(int(rng.integers(dim + 1, 12)), dim))
    hull = Hull(Polytope(V[: len(V) // 2]), Polytope(V[len(V) // 2 :]))
    for eq in spatial.ConvexHull(hull.V).equations:  # eq[:-1] @ x + eq[-1] <= 0 inside
        gap = np.abs(hull.normals - eq[:-1]).max(axis=1) + np.abs(hull.offsets + eq[-1])
        assert gap.min() < 1e-9


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(1, 20))
def test_every_facet_of_qhull_is_a_face_of_the_screen(seed, dim):
    """Cross-check against scipy's Qhull, where it is installed (skipped
    without it): each facet of the simplicial hull of random points, as
    the vertex indices Qhull gives, is a face of the screen's table."""
    spatial = pytest.importorskip("scipy.spatial")
    V = np.random.default_rng(seed).normal(size=(int(seed % 10 + dim + 1), dim))
    hull = Hull(Polytope(V[: len(V) // 2]), Polytope(V[len(V) // 2 :]))
    faces = set(map(tuple, hull.faces.tolist()))
    for simplex in spatial.ConvexHull(hull.V).simplices:
        assert tuple(sorted(simplex.tolist())) in faces


def test_screen_width_grows_with_the_boundary_not_the_subsets():
    """32 points in the plane: the rows are scored against the boundary's
    vertices and edges, not against every vertex subset (5,488 points)."""
    hull = Hull(Polytope(_circle(16, 0.0)), Polytope(_circle(16, 2.0)))
    assert len(hull.faces) < 200


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    m_a=st.integers(1, 5),
    m_b=st.integers(1, 5),
    flat=st.booleans(),
)
def test_within_decides_several_radii_at_once(seed, dim, m_a, m_b, flat):
    """At each of several radii, the decisions are the projection
    comparison at that radius, rows at each radius included."""
    rng = np.random.default_rng(seed)
    A, B, origin, _ = _flat_pair(rng, dim, m_a, m_b, flat, False)
    radii = np.array([0.5, 0.5 - 1e-9, 0.05, 0.0])
    rows = list(origin + 2.0 * rng.normal(size=(8, dim)))
    for x0 in list(rows):
        d, y, _ = dist_to_hull(x0, A, B)
        if d > 1e-6:
            rows.extend(y + (x0 - y) * (radii / d)[:, None])
    X = np.array(rows)
    dists = [dist_to_hull(x, A, B).d for x in X]
    hull = Hull(A, B)
    for r in radii:
        assert hull.within(X, r).tolist() == [d <= r for d in dists]


# a segment of length 1e-9 under a wide B: x is 3e-10 below its midpoint
TINY_A, TINY_B = Polytope([[0.0, 0.0], [1e-9, 0.0]]), Polytope([[1.0, 1.0], [-1.0, 1.0]])
TINY_X = np.array([5e-10, -3e-10])


def test_within_settles_a_row_clear_of_the_band_from_its_bounds():
    # both bounds read the exact distance 3e-10, so 4e-10 holds x without
    # a projection
    assert Hull(TINY_A, TINY_B).within([TINY_X], 4e-10).tolist() == [True]


def test_a_band_row_equal_to_a_vertex_is_inside_without_a_projection(monkeypatch):
    # a one-vertex hull grids at radius 1e-12, inside the screen's margin,
    # so its own vertex is a band row; it lies at distance exactly 0
    import mdmvi.geometry as geometry

    calls = []
    real = geometry.dist_to_hull
    monkeypatch.setattr(geometry, "dist_to_hull", lambda *a: calls.append(a) or real(*a))
    P = Polytope([[0.4, -0.2]])
    pts = Hull(P, P).grid(0.0, 41)
    assert calls == []
    assert pts.tobytes() == np.array([[0.4, -0.2]]).tobytes()
    assert Hull(P, P).within([[0.4, -0.2]], -1e-300).tolist() == [False]


# pair_3d's B; the bytes of ``Hull(B, B).grid(0.5, 11)`` from when 24 of
# its lattice rows, at exactly delta plus the grid step, went to Wolfe
PAIR_3D_B = Polytope([[2.0, 0.0, 0.0]])
PAIR_3D_B_GRID_SHA256 = "7063e6f964e6c8bfe98595b13137df6f22d5dd01a516185e4d32531876ec5537"


def _count_projections(monkeypatch) -> list:
    import mdmvi.geometry as geometry

    calls = []
    real = geometry.dist_to_hull
    monkeypatch.setattr(geometry, "dist_to_hull", lambda *a: calls.append(a) or real(*a))
    return calls


def test_a_one_vertex_hull_grids_without_a_projection(monkeypatch):
    calls = _count_projections(monkeypatch)
    pts = Hull(PAIR_3D_B, PAIR_3D_B).grid(0.5, 11)
    assert calls == []
    assert hashlib.sha256(pts.tobytes()).hexdigest() == PAIR_3D_B_GRID_SHA256


def test_a_band_row_at_a_vertex_of_a_segment_needs_no_projection(monkeypatch):
    # the vertex rule where the one-vertex rule does not apply: a radius
    # inside the screen's margin makes both vertices band rows
    calls = _count_projections(monkeypatch)
    hull = Hull(Polytope([[0.4, -0.2]]), Polytope([[1.0, 0.3]]))
    assert hull.within(hull.V, 1e-13).tolist() == [True, True]
    assert calls == []


def _lattice_band_rows() -> np.ndarray:
    # the rows of that grid's lattice at delta plus the grid step from B
    v = PAIR_3D_B.vertices[0]
    axes, step = box_axes(v - 0.5, v + 0.5, 11)
    lattice = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    rows = lattice[np.abs(row_norms(lattice - v) - (0.5 + step)) < 1e-9]
    assert len(rows) == 24
    return rows


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_one_vertex_hull_decides_its_band_as_the_projection(dim, monkeypatch):
    """Rows at the radius, 1e-12 either side of it and at the vertex, in
    random directions, and in 3-D the 24 lattice rows above, at radii
    down to a negative one: ``within`` decides each as ``dist_to_hull``
    does, and calls it for none."""
    rng = np.random.default_rng(dim)
    v = PAIR_3D_B.vertices[0] if dim == 3 else rng.normal(size=dim)
    P = Polytope([v])
    radii = [-1e-300, 0.0, 1e-13, 1e-9, 0.35, 0.6, 0.6 + 1e-12]
    u = rng.normal(size=(40, dim))
    u /= row_norms(u)[:, None]
    lengths = np.array([0.0] + [r * (1 + t) for r in radii[1:] for t in (-1e-12, 0.0, 1e-12)])
    X = (v + lengths[:, None, None] * u).reshape(-1, dim)
    if dim == 3:
        X = np.vstack([X, _lattice_band_rows()])
    dists = [dist_to_hull(x, P, P).d for x in X]
    calls = _count_projections(monkeypatch)
    hull = Hull(P, P)
    for r in radii:
        assert hull.within(X, r).tolist() == [d <= r for d in dists]
    assert calls == []


@pytest.mark.xfail(
    strict=True,
    reason="dist_to_hull stops once no vertex improves ||z||^2 by 1e-14 of the "
    "largest squared vertex distance (about 2 here), far above d^2 = 9e-20: "
    "it reads 5.657e-10, not the exact 3e-10",
)
def test_dist_to_hull_is_exact_at_tiny_distances():
    assert dist_to_hull(TINY_X, TINY_A, TINY_B).d == pytest.approx(3e-10, rel=1e-6)


def _sample_set_by_points(A, B, delta, resolution):
    """``sample_set`` as it was before the batched screen: vertex distances
    and the support-function bound over the direction net, with one
    projection per point they leave undecided."""
    V = hull_vertex_matrix(A, B)
    lo = V.min(axis=0) - delta
    hi = V.max(axis=0) + delta
    axes = []
    step = 0.0
    for a, b in zip(lo, hi):
        if b - a <= 1e-12:
            axes.append(np.array([0.5 * (a + b)]))
        else:
            axes.append(np.linspace(a, b, resolution))
            step = max(step, (b - a) / (resolution - 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    thresh = delta + step + 1e-12
    upper = np.min(np.linalg.norm(pts[:, None, :] - V[None, :, :], axis=2), axis=1)
    dirs = _direction_net(V.shape[1])
    support = np.max(V @ dirs.T, axis=0)
    lower = np.maximum(np.max(pts @ dirs.T - support[None, :], axis=1), 0.0)
    keep = upper <= thresh
    for i in np.nonzero(~keep & (lower <= thresh))[0]:
        keep[i] = dist_to_hull(pts[i], A, B).d <= thresh
    pts = pts[keep]
    extra = V[~(pts[None] == V[:, None]).all(axis=2).any(axis=1)]
    return np.vstack([pts, extra]) if len(extra) else pts


ROT = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
SAMPLE_HULLS = {
    "segment_1d": ([[0.0]], [[1.0]]),
    "plane_2d": ([[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]]),
    "plane_2d_rotated": (
        (np.array([[0.0, 0.0], [0.0, 1.0]]) @ ROT.T).tolist(),
        (np.array([[2.0, 0.0], [2.0, 1.0]]) @ ROT.T).tolist(),
    ),
    "multivertex_2d": (
        [[0.0, 0.0], [0.6, 0.0], [0.6, 0.6], [0.0, 0.6]],
        [[2.0866, 0.0887], [1.8042, 0.3], [1.516, 0.0967], [1.6202, -0.2402],
         [1.9729, -0.2452]],
    ),
    "segment_3d": ([[-0.8, 0.01, -0.2]], [[1.2, 0.01, -0.2]]),
    "simplex_3d": ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.3, 0.2, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(SAMPLE_HULLS))
@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_sample_set_matches_the_pointwise_grid(name, delta):
    a, b = SAMPLE_HULLS[name]
    A, B = Polytope(a), Polytope(b)
    resolution = 41 if A.dim < 3 else 13
    got = sample_set(A, B, delta, resolution)
    assert np.array_equal(got, _sample_set_by_points(A, B, delta, resolution))
