import numpy as np
import pytest

from mdmvi import (
    Polytope,
    dist_to_hull,
    f_eval,
    f_subgrad,
    l2_norm,
    linear,
    make_function,
    max_affine,
    quadratic,
    restricted,
    sin_quadratic,
)

from mdmvi.functions import f_values

from conftest import grid_1d
from helpers import eps_subdiff_check


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f_eval(f, x + e) - f_eval(f, x - e)) / (2 * h)
    return g


CATALOG = {
    "linear": lambda: linear([1.5], -0.2),
    "quadratic": lambda: quadratic([[2.0]], [0.3]),
    "l2_norm": lambda: l2_norm([0.4]),
    "max_affine": lambda: max_affine([[1.0], [2.0]], [0.0, -1.0]),
    "sin_quadratic": lambda: sin_quadratic(0.3, [3.0], [[1.0]], [-0.5]),
}


class TestEval:
    def test_linear(self):
        f = linear([1.0], 0.0)
        assert f_eval(f, [0.3]) == pytest.approx(0.3)

    def test_norm(self):
        f = l2_norm([0.0, 0.0])
        assert f_eval(f, [3.0, 4.0]) == pytest.approx(5.0)

    def test_restricted_outside_is_inf(self):
        f = restricted(quadratic([[1.0]], [0.0]), Polytope([[-1.0], [1.0]]))
        assert f_eval(f, [2.0]) == np.inf
        assert f_eval(f, [0.5]) == pytest.approx(0.125)


class TestSubgrad:
    def test_absolute_value_at_kink(self):
        f = l2_norm([0.0])
        reps = sorted(g[0] for g in f_subgrad(f, [0.0]))
        assert reps == [-1.0, 1.0]

    def test_max_affine_both_active(self):
        f = max_affine([[1.0], [2.0]], [0.0, -1.0])
        reps = sorted(g[0] for g in f_subgrad(f, [1.0]))
        assert reps == [1.0, 2.0]

    def test_quadratic_gradient(self):
        f = quadratic([[1.0]], [0.0])
        (g,) = f_subgrad(f, [3.0])
        assert g[0] == pytest.approx(3.0)

    def test_empty_outside_domain(self):
        f = restricted(linear([1.0]), Polytope([[0.0], [1.0]]))
        assert f_subgrad(f, [2.0]) == []
        assert f_subgrad(f, [1.0]) == []  # boundary: conservative empty set

    def test_locality_restricted_matches_base_inside(self):
        base = quadratic([[1.0]], [-0.3])
        f = restricted(base, Polytope([[-1.0], [1.0]]))
        for x in (-0.5, 0.0, 0.7):
            got = f_subgrad(f, [x])
            want = f_subgrad(base, [x])
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.allclose(g, w)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_finite_difference_consistency(self, name):
        f = CATALOG[name]()
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(200):
            x = rng.uniform(-2.0, 2.0, size=f.dim)
            reps = f_subgrad(f, x)
            if len(reps) != 1:
                continue  # kink: gradient comparison is meaningless
            assert np.allclose(reps[0], fd_gradient(f, x), atol=1e-5)
            checked += 1
            if checked >= 100:
                break
        assert checked >= 50

    @pytest.mark.parametrize("name", ["linear", "quadratic", "l2_norm", "max_affine"])
    def test_convex_members_pass_global_subgradient_check(self, name):
        f = CATALOG[name]()
        grid = grid_1d(-3, 3, 121)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=f.dim)
            for p in f_subgrad(f, x):
                assert eps_subdiff_check(f, x, p, 0.0, grid)


class TestEpsSubdiffCheck:
    def test_gradient_passes(self):
        f = quadratic([[1.0]], [0.0])
        assert eps_subdiff_check(f, [1.0], [1.0], 0.0, grid_1d(-3, 3, 121))

    def test_steep_slope_fails(self):
        f = quadratic([[1.0]], [0.0])
        assert not eps_subdiff_check(f, [1.0], [2.0], 0.0, grid_1d(-3, 3, 121))

    def test_local_slack_passes(self):
        f = quadratic([[1.0]], [0.0])
        assert eps_subdiff_check(f, [1.0], [1.1], 0.01, grid_1d(0.8, 1.2, 81))

    def test_rejects_infinite_base_point(self):
        f = restricted(linear([1.0]), Polytope([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            eps_subdiff_check(f, [5.0], [1.0], 0.0, grid_1d(0, 1, 11))


class TestDomain:
    def test_polytope_interior_vs_boundary(self):
        f = restricted(linear([2.0]), Polytope([[0.0], [1.0]]))
        assert [g.tolist() for g in f_subgrad(f, [0.5])] == [[2.0]]
        assert f_subgrad(f, [1.0]) == []


class TestMakeFunction:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_json_roundtrip(self, name):
        f = CATALOG[name]()
        g = make_function(f.fid, f.params)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=f.dim)
            assert f_eval(f, x) == pytest.approx(f_eval(g, x), abs=1e-12)

    def test_restricted_roundtrip(self):
        f = restricted(quadratic([[1.0]], [-0.9]), Polytope([[-0.3], [1.3]]))
        g = make_function(f.fid, f.params)
        assert f_eval(g, [2.0]) == np.inf
        assert f_eval(g, [0.5]) == pytest.approx(f_eval(f, [0.5]))

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            make_function("cubic", {})

    def test_missing_params(self):
        with pytest.raises(ValueError):
            make_function("linear", {})

    def test_nonconvex_quadratic_rejected(self):
        with pytest.raises(ValueError):
            quadratic([[-1.0]], [0.0])


# The scalar expressions each catalog member evaluated one point at a time
# before values were defined on rows, and a bound on the magnitude of the
# terms each sums, from which the tolerance of a reordered sum follows.
def _scalar_reference(fid, params):
    if fid == "linear":
        a, b = np.asarray(params["a"]), params["b"]
        return (lambda x: float(a @ x) + b), (lambda x: abs(a) @ abs(x) + abs(b))
    if fid == "quadratic":
        Q, a = np.asarray(params["Q"]), np.asarray(params["a"])
        return (
            lambda x: 0.5 * float(x @ Q @ x) + float(a @ x),
            lambda x: 0.5 * abs(x) @ abs(Q) @ abs(x) + abs(a) @ abs(x),
        )
    if fid == "l2_norm":
        x0 = np.asarray(params["x0"])
        return (lambda x: float(np.linalg.norm(x - x0))), (lambda x: np.linalg.norm(x - x0))
    if fid == "max_affine":
        S, b = np.asarray(params["slopes"]), np.asarray(params["offsets"])
        return (
            lambda x: float(np.max(S @ x + b)),
            lambda x: np.max(abs(S) @ abs(x) + abs(b)),
        )
    if fid == "sin_quadratic":
        c, w = params["c"], np.asarray(params["w"])
        Q, a = np.asarray(params["Q"]), np.asarray(params["a"])
        return (
            lambda x: c * float(np.sin(w @ x)) + 0.5 * float(x @ Q @ x) + float(a @ x),
            lambda x: abs(c) * (1 + abs(w) @ abs(x)) + 0.5 * abs(x) @ abs(Q) @ abs(x)
            + abs(a) @ abs(x),
        )
    raise ValueError(fid)


def _random_member(fid, rng, dim, axis_aligned=False):
    if axis_aligned:
        unit = np.zeros(dim)
        unit[rng.integers(dim)] = 1.0
        if fid == "linear":
            return linear(rng.normal() * unit, rng.normal())
        return max_affine(rng.normal(size=(3, 1)) * unit, rng.normal(size=3))
    M = rng.normal(size=(dim, dim))
    if fid == "linear":
        return linear(rng.normal(size=dim), rng.normal())
    if fid == "quadratic":
        return quadratic(M @ M.T, rng.normal(size=dim))
    if fid == "l2_norm":
        return l2_norm(rng.normal(size=dim))
    if fid == "max_affine":
        return max_affine(rng.normal(size=(4, dim)), rng.normal(size=4))
    return sin_quadratic(rng.normal(), rng.normal(size=dim), M @ M.T, rng.normal(size=dim))


def _check_rows(f, X, ref, exact, magnitude=None):
    got = f_values(f, X)
    want = np.array([ref(x) for x in X])
    # one row alone gets the same bits as in the batch
    assert np.array_equal(got, [f_eval(f, x) for x in X])
    if exact:
        assert np.array_equal(got, want)
    else:
        mags = np.array([magnitude(x) for x in X])
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * (1.0 + mags))


@pytest.mark.parametrize("fid", sorted(CATALOG))
@pytest.mark.parametrize("seed", range(5))
def test_rows_equal_the_scalar_expressions_in_1d(fid, seed):
    rng = np.random.default_rng(seed)
    f = _random_member(fid, rng, 1)
    ref, _ = _scalar_reference(f.fid, f.params)
    X = np.vstack([rng.uniform(-3.0, 3.0, size=(200, 1)), [[0.0]], [[-0.0]]])
    _check_rows(f, X, ref, exact=True)


@pytest.mark.parametrize("fid", ["linear", "max_affine"])
@pytest.mark.parametrize("dim", [2, 3])
def test_rows_equal_the_scalar_expressions_for_axis_slopes(fid, dim):
    rng = np.random.default_rng(dim)
    for _ in range(5):
        f = _random_member(fid, rng, dim, axis_aligned=True)
        ref, _ = _scalar_reference(f.fid, f.params)
        _check_rows(f, rng.uniform(-3.0, 3.0, size=(200, dim)), ref, exact=True)


@pytest.mark.parametrize("fid", sorted(CATALOG))
@pytest.mark.parametrize("dim", [2, 3])
def test_rows_match_the_scalar_expressions_to_rounding(fid, dim):
    """In 2-D and 3-D the sums run in a fixed order where the scalar
    expressions let BLAS choose one: within 8 ulp of 1 + the terms' size."""
    rng = np.random.default_rng(10 + dim)
    for _ in range(5):
        f = _random_member(fid, rng, dim)
        ref, magnitude = _scalar_reference(f.fid, f.params)
        X = rng.uniform(-3.0, 3.0, size=(200, dim))
        _check_rows(f, X, ref, exact=False, magnitude=magnitude)


@pytest.mark.parametrize("dim", [1, 2])
def test_restricted_rows_mask_by_the_projection(dim):
    """A restricted member is +inf exactly where the scalar projection puts
    a point more than 1e-9 from its domain, and the base value elsewhere."""
    rng = np.random.default_rng(dim)
    P = Polytope(rng.normal(size=(dim + 2, dim)))
    base = quadratic(np.eye(dim), rng.normal(size=dim))
    f = restricted(base, P)
    ref, magnitude = _scalar_reference(base.fid, base.params)
    X = np.vstack([rng.uniform(-2.5, 2.5, size=(300, dim)), P.vertices])
    inside = np.array([dist_to_hull(x, P, P).d <= 1e-9 for x in X])
    got = f_values(f, X)
    assert inside.any() and not inside.all()
    assert np.array_equal(np.isfinite(got), inside)
    _check_rows(base, X[inside], ref, exact=dim == 1, magnitude=magnitude)
    assert np.array_equal(got[inside], f_values(base, X[inside]))


def test_f_values_validates_rows():
    f = linear([1.0, 2.0])
    with pytest.raises(ValueError):
        f_values(f, [[0.0, np.nan]])
    with pytest.raises(ValueError):
        f_values(f, [[0.0, 1.0, 2.0]])
    with pytest.raises(ValueError):
        f_values(f, [0.0, 1.0])


def _check_subgrad_rows(f, X):
    """Each row of one ``subgrad_rows`` call, NaN rows dropped, is bit for
    bit what ``f_subgrad`` returns at that point alone."""
    G = f.subgrad_rows(X)
    assert G.shape[0] == len(X) and G.shape[2] == f.dim
    for x, row in zip(X, G):
        got = f_subgrad(f, x)
        want = [g for g in row if not np.isnan(g).any()]
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
        assert all(np.isnan(g).all() for g in row if np.isnan(g).any())
    return G


@pytest.mark.parametrize("fid", sorted(CATALOG))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_subgrad_rows_match_f_subgrad_bit_for_bit(fid, dim):
    rng = np.random.default_rng(40 + dim)
    for _ in range(3):
        f = _random_member(fid, rng, dim)
        _check_subgrad_rows(f, rng.uniform(-3.0, 3.0, size=(100, dim)))
        assert len(f.subgrad_rows(np.empty((0, dim)))) == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_norm_has_every_signed_unit_vector_at_its_center(dim):
    rng = np.random.default_rng(dim)
    f = l2_norm(rng.normal(size=dim))
    x0 = np.asarray(f.params["x0"])
    X = np.vstack([rng.normal(size=(5, dim)), x0, x0 + 1e-13, x0 + 1e-11])
    G = _check_subgrad_rows(f, X)
    unit = np.eye(dim)
    want = [v for i in range(dim) for v in (unit[i], -unit[i])]
    assert np.array_equal(G[5], want) and np.array_equal(G[6], want)
    assert len(f_subgrad(f, X[7])) == 1
    for row in G[:5]:
        assert np.isnan(row[1:]).all()


def test_max_affine_ties_within_the_active_tolerance():
    # the first two pieces meet at x = 1, the first and the last at x = -0.5
    f = max_affine([[1.0], [2.0], [-1.0]], [0.0, -1.0, -1.0])
    X = np.array([[1.0], [1.0 + 1e-10], [1.0 - 5e-10], [1.0 + 1e-8], [0.0], [-0.5]])
    G = _check_subgrad_rows(f, X)
    assert [len(f_subgrad(f, x)) for x in X] == [2, 2, 2, 1, 1, 2]
    assert np.isnan(G[0, 2]).all() and G[0, :2, 0].tolist() == [1.0, 2.0]
    assert np.isnan(G[5, 1]).all() and G[5, [0, 2], 0].tolist() == [1.0, -1.0]


@pytest.mark.parametrize("dim", [1, 2])
def test_restricted_rows_on_and_near_the_boundary(dim):
    base = quadratic(np.eye(dim), np.linspace(-0.3, 0.3, dim))
    P = Polytope([[-1.0], [1.0]]) if dim == 1 else Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    f = restricted(base, P)
    if dim == 1:
        edge, normal = np.array([1.0]), np.array([1.0])
    else:
        edge, normal = np.array([0.5, 0.5]), np.array([1.0, 1.0]) / np.sqrt(2.0)
    offsets = [-3e-9, -1.5e-9, -1.25e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]
    X = np.vstack([edge + t * normal for t in offsets] + [0.9 * edge, P.vertices])
    G = _check_subgrad_rows(f, X)
    inner = [len(f_subgrad(f, x)) == 1 for x in X]
    assert inner[0] and inner[len(offsets)]  # well inside
    assert not any(inner[offsets.index(0.0) : len(offsets)])  # on or past the edge
    assert np.isnan(G[-1]).all()  # a vertex is on the boundary
    assert len(f.subgrad_rows(np.empty((0, dim)))) == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_restrict_f_rows_on_the_boundary_of_c(dim):
    from mdmvi import restrict_f

    if dim == 1:
        A, B, f = Polytope([[0.0]]), Polytope([[1.0]]), quadratic([[1.0]], [0.2])
        edge, normal = np.array([1.5]), np.array([1.0])
    else:
        A, B = Polytope([[0.0, 0.0], [0.0, 1.0]]), Polytope([[2.0, 0.0], [2.0, 1.0]])
        f = max_affine([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        edge, normal = np.array([1.0, 1.5]), np.array([0.0, 1.0])
    f1 = restrict_f(f, A, B, 0.5)
    offsets = [-0.25, -2e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]
    X = np.vstack([edge + t * normal for t in offsets])
    G = _check_subgrad_rows(f1, X)
    assert len(f_subgrad(f1, X[0])) >= 1 and len(f_subgrad(f1, X[1])) >= 1
    assert np.isnan(G[2:]).all()  # within 1e-9 of the boundary of C, or outside
