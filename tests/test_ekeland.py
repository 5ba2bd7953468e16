import numpy as np
import pytest

from mdmvi import (
    EkelandPoint,
    FuzzyPairError,
    Polytope,
    SupConvSpec,
    TentSpec,
    TestFunction,
    evp_verify,
    fuzzy_pair,
    linear,
    quadratic,
    restricted,
)
from mdmvi.ekeland import EKELAND_EPS, DescentError, descend_g, g_table
from mdmvi.geometry import sample_set
from mdmvi.mdmvt import restrict_f
from mdmvi.supconv import phi_on_grid, phi_value

from conftest import grid_1d


@pytest.fixture(scope="module")
def canonical_smoothing(seg_a, seg_b):
    """Pipeline-style smoothing for the linear canonical problem."""
    return SupConvSpec(TentSpec(seg_a, seg_b, 0.0, 0.425), 2.0825396825396825)


def no_subgrads(X):
    """A subgradient table with no representative at any row."""
    return np.empty((len(X), 0, X.shape[1]))


def wrap_phi(sc, extra=None):
    """Test-only function equal to the smoothing (plus an optional term,
    given on rows)."""

    def rows(X):
        return phi_on_grid(sc, X) + (extra(X) if extra else 0.0)

    return TestFunction(
        fid="synthetic", params={}, dim=sc.dim, rows=rows, subgrad_rows=no_subgrads
    )


def minimize_g(f1, sc, A, B, delta, resolution, seed):
    """Near-minimizer of g = f1 - phi_K on C, seeded from a grid of C."""
    table = g_table(f1, sc, sample_set(A, B, delta, resolution))
    return descend_g(table, f1, sc, delta, seed=seed)


class TestMinimizeG:
    def test_linear_objective_minimizer(self, seg_a, seg_b, canonical_smoothing):
        # dense-grid scan of g = f1 - phi pins the minimizer near 0, where
        # the smoothing's slope first exceeds the slope of f
        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        pt = minimize_g(f1, canonical_smoothing, seg_a, seg_b, 0.5, 201, seed=0)
        xs = np.linspace(-0.5, 1.5, 2001)
        gs = np.array(
            [x - phi_value([x], canonical_smoothing) for x in xs]
        )
        u_grid = xs[int(np.argmin(gs))]
        assert abs(pt.u[0] - u_grid) <= 2e-3
        assert pt.value == pytest.approx(float(gs.min()), abs=1e-6)

    def test_constant_g_returns_zero_value(self, seg_a, seg_b, canonical_smoothing):
        f = wrap_phi(canonical_smoothing)
        f1 = restrict_f(f, seg_a, seg_b, 0.5)
        pt = minimize_g(f1, canonical_smoothing, seg_a, seg_b, 0.5, 101, seed=0)
        assert pt.value == pytest.approx(0.0, abs=1e-9)

    def test_centered_quadratic_recovers_center(self, seg_a, seg_b, canonical_smoothing):
        f = wrap_phi(canonical_smoothing, extra=lambda X: 0.5 * (X[:, 0] - 0.5) ** 2)
        f1 = restrict_f(f, seg_a, seg_b, 0.5)
        pt = minimize_g(f1, canonical_smoothing, seg_a, seg_b, 0.5, 101, seed=0)
        assert pt.u[0] == pytest.approx(0.5, abs=1e-6)
        assert pt.value == pytest.approx(0.0, abs=1e-9)

    def test_empty_domain_errors(self, seg_a, seg_b, canonical_smoothing):
        f = restricted(linear([1.0]), Polytope([[5.0], [6.0]]))
        f1 = restrict_f(f, seg_a, seg_b, 0.5)
        with pytest.raises(DescentError):
            minimize_g(f1, canonical_smoothing, seg_a, seg_b, 0.5, 41, seed=0)

    def test_deterministic_given_seed(self, seg_a, seg_b, canonical_smoothing):
        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        a = minimize_g(f1, canonical_smoothing, seg_a, seg_b, 0.5, 101, seed=4)
        b = minimize_g(f1, canonical_smoothing, seg_a, seg_b, 0.5, 101, seed=4)
        assert np.array_equal(a.u, b.u)

    def test_final_entry_meets_exhaustive_scan(self, seg_a, seg_b, canonical_smoothing):
        # the point must land within 1e-5 (plus grid error) of an
        # independent exhaustive scan of g
        from mdmvi import TestFunction
        from mdmvi.oracles import grid_inf

        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        pt = minimize_g(f1, canonical_smoothing, seg_a, seg_b, 0.5, 201, seed=0)
        g_fn = TestFunction(
            fid="synthetic",
            params={},
            dim=1,
            rows=lambda X: f1.rows(X) - phi_on_grid(canonical_smoothing, X),
            subgrad_rows=no_subgrads,
        )
        scan = grid_inf(g_fn, seg_a, seg_b, 0.5, 401)
        lip_budget = 1.0 + canonical_smoothing.K
        assert pt.eps == EKELAND_EPS
        assert pt.value - scan.value <= 1e-5 + scan.step * lip_budget


class TestEvpVerify:
    def test_global_minimizer_dominates(self, seg_a, seg_b, canonical_smoothing):
        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        ok, worst = evp_verify(
            [0.0], 0.01, f1, canonical_smoothing, grid_1d(-0.5, 1.5, 201)
        )
        assert ok and worst >= -1e-9

    def test_displaced_point_fails(self, seg_a, seg_b, canonical_smoothing):
        # g(u) sits 0.5 above the infimum, far beyond what eps*diam allows
        f = wrap_phi(canonical_smoothing, extra=lambda X: 0.5 * (X[:, 0] - 0.5) ** 2)
        f1 = restrict_f(f, seg_a, seg_b, 0.5)
        u = [1.5]  # g(1.5) = 0.5
        ok, worst = evp_verify(
            u, 1e-3, f1, canonical_smoothing, grid_1d(-0.5, 1.5, 201)
        )
        assert not ok
        assert worst == pytest.approx(-0.5 + 1e-3, abs=1e-2)

    def test_constant_g_always_ok(self, seg_a, seg_b, canonical_smoothing):
        f = wrap_phi(canonical_smoothing)
        f1 = restrict_f(f, seg_a, seg_b, 0.5)
        ok, worst = evp_verify(
            [0.7], 0.05, f1, canonical_smoothing, grid_1d(-0.5, 1.5, 101)
        )
        assert ok and worst >= -1e-9


    def test_matches_pointwise_reference_in_2d(self):
        # the table-based check must reproduce the pointwise loop exactly
        from mdmvi.ekeland import _g_eval
        from mdmvi.geometry import sample_set

        A, B = Polytope([[0.0, 0.0]]), Polytope([[1.0, 0.0]])
        sc = SupConvSpec(TentSpec(A, B, 0.0, 0.425), 2.08)
        f1 = restrict_f(linear([1.0, 0.3]), A, B, 0.5)
        grid = sample_set(A, B, 0.5, 9)
        u, eps = np.array([0.1, -0.2]), 0.05
        gu = _g_eval(u, f1, sc)
        ref = min(
            _g_eval(z, f1, sc) + eps * float(np.linalg.norm(z - u)) - gu
            for z in grid
            if np.isfinite(_g_eval(z, f1, sc))
        )
        assert evp_verify(u, eps, f1, sc, grid).worst == ref


class TestFuzzyPair:
    def test_smooth_interior_point(self, seg_a, seg_b, canonical_smoothing):
        # at a smooth point the residual is |f' - phi'| exactly
        from helpers import eps_subdiff_check
        from mdmvi.supconv import phi_value as pv

        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        u = EkelandPoint(u=np.array([0.7]), eps=0.1, value=0.0)
        pair = fuzzy_pair(
            u, f1, canonical_smoothing, 0.05, grid=grid_1d(-0.5, 1.5, 101)
        )
        assert pair.p[0] == pytest.approx(1.0, abs=1e-12)
        assert pair.q[0] == pytest.approx(-0.425, abs=1e-6)
        assert pair.residual == pytest.approx(0.575, abs=1e-6)
        # returned slopes stay honest members of their differentials
        local = pair.x + np.linspace(-0.1, 0.1, 41)[:, None]
        assert eps_subdiff_check(f1, pair.x, pair.p, 1e-9, local)
        sup_gap = max(
            pv([z], canonical_smoothing)
            - pv(pair.y, canonical_smoothing)
            - float(-pair.q @ (z - pair.y))
            for z in np.linspace(-0.5, 1.5, 41)
        )
        assert sup_gap <= 1e-4

    def test_exact_cancellation_at_smooth_minimum(
        self, seg_a, seg_b, canonical_smoothing
    ):
        base = quadratic([[1.0]], [-0.5])  # x^2/2 - x/2, gradient x - 0.5

        def rows(X):
            return base.rows(X) + phi_on_grid(canonical_smoothing, X)

        def subgrad_rows(X):
            # the smoothing's slope is 0.425 strictly inside (0, 1)
            inside = ((0 < X[:, 0]) & (X[:, 0] < 1))[:, None, None]
            return np.where(inside, base.subgrad_rows(X) + 0.425, np.nan)

        f = TestFunction(
            fid="synthetic", params={}, dim=1, rows=rows, subgrad_rows=subgrad_rows
        )
        f1 = restrict_f(f, seg_a, seg_b, 0.5)
        u = EkelandPoint(u=np.array([0.5]), eps=0.1, value=0.0)
        pair = fuzzy_pair(
            u, f1, canonical_smoothing, 0.05, grid=grid_1d(-0.5, 1.5, 101)
        )
        assert pair.residual <= 1e-6

    def test_kink_enumerates_representatives(self, seg_a, seg_b, unit_smoothing):
        # |x| against the unit tent with K=2: g vanishes on [0,1]; at u=0
        # enumeration over the two representatives bounds the residual
        from mdmvi import l2_norm

        f = restricted(l2_norm([0.0]), Polytope([[-1.0], [1.0]]))
        f1 = restrict_f(f, seg_a, seg_b, 0.5)
        u = EkelandPoint(u=np.array([0.0]), eps=0.1, value=0.0)
        pair = fuzzy_pair(u, f1, unit_smoothing, 0.05, grid=grid_1d(-0.5, 1.5, 101))
        assert pair.p[0] in (-1.0, 1.0)
        assert pair.residual <= 0.5 + 1e-9

    def test_threshold_failure_raises(self, seg_a, seg_b, canonical_smoothing):
        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        u = EkelandPoint(u=np.array([0.7]), eps=1e-4, value=0.0)
        with pytest.raises(FuzzyPairError):
            fuzzy_pair(u, f1, canonical_smoothing, 0.01, grid=grid_1d(-0.5, 1.5, 101))

    def test_rejects_bad_radius(self, seg_a, seg_b, canonical_smoothing):
        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        u = EkelandPoint(u=np.array([0.7]), eps=0.1, value=0.0)
        for radius in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="search_radius"):
                fuzzy_pair(u, f1, canonical_smoothing, radius, grid=grid_1d(-0.5, 1.5, 101))
