import numpy as np
import pytest

from mdmvi import (
    Polytope,
    eps_subdiff_check,
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

from conftest import grid_1d


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
        from mdmvi.functions import Domain
        from mdmvi.geometry import BOUNDARY, INTERIOR, Polytope

        dom = Domain(kind="polytope", polytope=Polytope([[0.0], [1.0]]))
        assert dom.classify(np.array([0.5])) == INTERIOR
        assert dom.classify(np.array([1.0])) == BOUNDARY


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
