import numpy as np
import pytest

from mdmvi import (
    Polytope,
    SupConvSpec,
    SupergradientError,
    TentSpec,
    phi_eval,
    phi_supergradient,
    superdiff_transfer_check,
    uv_disjoint,
)
from mdmvi.oracles import phi_brute
from mdmvi.supconv import (
    NoAttainingPointError,
    PhiEvalError,
    phi_on_grid,
    phi_value,
    sample_table,
)
from mdmvi.tent import psi_eval, psi_value

from conftest import grid_1d


def brute_phi_1d(x, t, K, steps=100_001):
    y = np.linspace(0.0, 1.0, steps)
    vals = t.r + (t.s - t.r) * y  # unit-segment tent is linear in y
    return float(np.max(vals - K * np.abs(x - y)))


class TestPhiEval:
    def test_collapses_to_tent_inside(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        v = phi_eval(0.5, sc)
        assert v.value == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(v.argmax, [0.5], atol=1e-8)
        assert v.value == pytest.approx(brute_phi_1d(0.5, unit_tent, 2.0), abs=1e-5)

    def test_decay_right_of_hull(self, unit_tent):
        sc = SupConvSpec(unit_tent, 1.0)
        v = phi_eval(2.0, sc)
        assert v.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(v.argmax, [1.0], atol=1e-8)
        assert v.value == pytest.approx(brute_phi_1d(2.0, unit_tent, 1.0), abs=1e-5)

    def test_decay_left_of_hull(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        v = phi_eval(-0.5, sc)
        assert v.value == pytest.approx(-1.0, abs=1e-9)
        assert np.allclose(v.argmax, [0.0], atol=1e-8)
        assert v.value == pytest.approx(brute_phi_1d(-0.5, unit_tent, 2.0), abs=1e-5)

    def test_gap_is_certified(self, unit_tent):
        from mdmvi import dist_to_hull

        sc = SupConvSpec(unit_tent, 2.0)
        for x in (-0.3, 0.0, 0.4, 1.0, 1.3):
            v = phi_eval(np.array([x]), sc)
            assert v.gap >= 0.0
            assert v.gap <= 1e-7
            assert dist_to_hull(v.argmax, unit_tent.A, unit_tent.B).d <= 1e-8
            # the attaining point supports the reported value
            assert v.value >= psi_value(v.argmax, unit_tent) - 2.0 * abs(
                x - v.argmax[0]
            ) - v.gap - 1e-12

    def test_lipschitz_and_concavity(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1.0, 2.0, size=(60, 2))
        for a, b in xs:
            fa, fb = phi_value([a], sc), phi_value([b], sc)
            assert abs(fa - fb) <= 2.0 * abs(a - b) + 1e-6
            mid = phi_value([(a + b) / 2], sc)
            assert mid >= 0.5 * (fa + fb) - 1e-6

    def test_majorizes_tent_on_hull(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        for x in np.linspace(0.0, 1.0, 21):
            assert phi_value([x], sc) >= psi_value([x], unit_tent) - 1e-8

    def test_range_bound_on_hull(self, unit_tent):
        sc = SupConvSpec(unit_tent, 3.0)
        for x in np.linspace(0.0, 1.0, 21):
            v = phi_value([x], sc)
            assert 0.0 - 1e-6 <= v <= 1.0 + 1e-6

    def test_oracle_equivalence(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        step_tol = 1e-3 * (2.0 + 1.0)
        for x in np.linspace(-0.4, 1.4, 19):
            assert phi_value([x], sc) == pytest.approx(
                phi_brute([x], sc, 1000), abs=step_tol
            )

    def test_2d_band_matches_brute(self):
        A = Polytope([[0.0, 0.0], [0.0, 1.0]])
        B = Polytope([[2.0, 0.0], [2.0, 1.0]])
        t = TentSpec(A, B, 0.0, 1.325)
        sc = SupConvSpec(t, 4.0)
        for x in ([1.0, 0.5], [-0.3, 0.5], [2.2, 0.1], [0.0, 0.0]):
            fast = phi_value(x, sc)
            brute = phi_brute(x, sc, 400)
            assert fast == pytest.approx(brute, abs=(4.0 + 1.325) / 300 * 3)

    def test_unconverged_raises(self, unit_tent, monkeypatch):
        # the conic dual bound normally certifies every benign instance, so
        # disable it to exercise the non-convergence error contract
        import mdmvi.supconv as sp

        monkeypatch.setattr(sp, "_dual_value", lambda p, x, sc: np.inf)
        sc = SupConvSpec(unit_tent, 2.0)
        with pytest.raises(PhiEvalError) as err:
            phi_eval(np.array([0.5]), sc, refine=False)
        assert "gap" in str(err.value)

    def test_rejects_bad_K(self, unit_tent):
        with pytest.raises(ValueError):
            SupConvSpec(unit_tent, 0.0)


class TestCertificateFirst:
    """Inside the hull, where the tent's LP-dual slope has norm at most K,
    the tent's own dual certifies phi_K(x) = psi(x) without Frank-Wolfe."""

    @pytest.fixture
    def plane_sc(self):
        # plane_2d's tent and smoothing, as its run chooses them
        A = Polytope([[0.0, 0.0], [0.0, 1.0]])
        B = Polytope([[2.0, 0.0], [2.0, 1.0]])
        return SupConvSpec(TentSpec(A, B, 0.0, 1.325), 4.081889763779527)

    @pytest.fixture
    def fw_calls(self, monkeypatch):
        import mdmvi.supconv as sp

        calls = []
        real = sp.maximize_concave

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sp, "maximize_concave", spy)
        return calls

    def test_interior_point_needs_no_frank_wolfe(self, plane_sc, fw_calls):
        x = np.array([0.7, 0.4])
        slope = psi_eval(x, plane_sc.tent).slope
        assert np.linalg.norm(slope) <= plane_sc.K
        v = phi_eval(x, plane_sc)
        assert fw_calls == []
        assert v.value == pytest.approx(psi_value(x, plane_sc.tent), abs=1e-12)
        assert np.array_equal(v.argmax, x)
        assert 0.0 <= v.gap <= 1e-12
        assert v.value == pytest.approx(
            phi_brute(x, plane_sc, 400), abs=(plane_sc.K + 1.325) / 300 * 3
        )

    def test_exterior_point_still_runs_frank_wolfe(self, plane_sc, fw_calls):
        v = phi_eval([-0.3, 0.5], plane_sc)
        assert len(fw_calls) == 1
        assert v.gap <= 1e-7

    def test_vertices_are_scored_from_the_tent(self, plane_sc, monkeypatch):
        """The tent holds its values at the vertices, so a Frank-Wolfe
        evaluation reads the tent at no vertex."""
        import mdmvi.supconv as sp

        V = plane_sc.tent.vertex_matrix()
        assert np.array_equal(
            plane_sc.tent.vertex_values(), [psi_value(v, plane_sc.tent) for v in V]
        )
        points = []
        real = sp.psi_eval

        def spy(x, t):
            points.append(np.asarray(x, dtype=float))
            return real(x, t)

        monkeypatch.setattr(sp, "psi_eval", spy)
        phi_eval([-0.3, 0.5], plane_sc)
        assert points and not any((V == y).all(axis=1).any() for y in points)


class TestPhiSupergradient:
    def test_cone_formula_right(self, unit_tent):
        sc = SupConvSpec(unit_tent, 1.0)
        p, mode = phi_supergradient([2.0], sc, grid=grid_1d(-1, 2, 61))
        assert mode == "cone-formula"
        assert p[0] == pytest.approx(-1.0, abs=1e-9)

    def test_fallback_inside(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        p, mode = phi_supergradient([0.5], sc, grid=grid_1d(-1, 2, 61))
        assert mode == "fallback"
        assert p[0] == pytest.approx(1.0, abs=1e-6)

    def test_mirrored_tent_flips_sign(self, seg_a, seg_b):
        t = TentSpec(seg_a, seg_b, 1.0, 0.0)
        sc = SupConvSpec(t, 1.0)
        p, mode = phi_supergradient([-1.0], sc, grid=grid_1d(-1.5, 2, 61))
        assert mode == "cone-formula"
        assert p[0] == pytest.approx(1.0, abs=1e-9)

    def test_matches_finite_differences_off_kink(self, unit_tent):
        sc = SupConvSpec(unit_tent, 1.5)
        h = 1e-5
        for x in (-0.6, 1.8, 2.4):
            p, mode = phi_supergradient([x], sc, grid=grid_1d(-1, 3, 41))
            fd = (phi_value([x + h], sc) - phi_value([x - h], sc)) / (2 * h)
            assert mode == "cone-formula"
            assert p[0] == pytest.approx(fd, abs=1e-4)

    def test_verification_failure_raises(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        with pytest.raises(SupergradientError):
            phi_supergradient([0.5], sc, grid=grid_1d(-1, 2, 61), tol_super=-1.0)


class TestTransferCheck:
    def test_exact_pair_right(self, unit_tent):
        sc = SupConvSpec(unit_tent, 1.0)
        assert superdiff_transfer_check([-1.0], [2.0], sc, 1e-6, grid_1d(0, 1, 1001))

    def test_exact_pair_inside(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        assert superdiff_transfer_check([1.0], [0.5], sc, 1e-6, grid_1d(0, 1, 1001))

    def test_wrong_slope_fails(self, unit_tent):
        # at the attaining endpoint y=1 every slope <= 1 is valid (the hull
        # ends there), so a too-steep slope is the genuine failure witness
        sc = SupConvSpec(unit_tent, 1.0)
        assert not superdiff_transfer_check(
            [1.5], [2.0], sc, 1e-6, grid_1d(0, 1, 1001)
        )

    def test_missing_attainer_raises(self, unit_tent):
        sc = SupConvSpec(unit_tent, 1.0)
        with pytest.raises(NoAttainingPointError):
            superdiff_transfer_check(
                [-1.0], [2.0], sc, 0.0, np.array([[0.25], [0.5]])
            )


class TestUVDisjoint:
    def test_separated_sets(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        assert uv_disjoint([0.1], 0.2, sc, 1.0, grid_1d(0, 1, 1001))

    def test_overlapping_sets(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        assert not uv_disjoint([0.95], 0.2, sc, 1.0, grid_1d(0, 1, 1001))

    def test_huge_c_absorbs_everything(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        assert not uv_disjoint([0.5], 2.0, sc, 1.0, grid_1d(0, 1, 101))

    def test_matches_pointwise_reference(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        grid, ybar, s_anchor = grid_1d(-0.2, 1.2, 141), np.array([0.3]), 1.0
        phi_bar = phi_value(ybar, sc)
        psis = [psi_value(z, unit_tent) for z in grid]
        for c in np.linspace(0.01, 1.0, 25):
            meet = any(
                np.isfinite(v)
                and v - 2.0 * abs(z[0] - ybar[0]) > phi_bar - c - 1e-9
                and abs(s_anchor - v) < c + 1e-9
                for z, v in zip(grid, psis)
            )
            assert uv_disjoint(ybar, c, sc, s_anchor, grid) == (not meet)

    def test_rejects_nonpositive_c(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        with pytest.raises(ValueError):
            uv_disjoint([0.5], 0.0, sc, 1.0, grid_1d(0, 1, 11))


def test_sample_table_columns(unit_tent):
    # rows are (coordinates, phi, psi); the two agree on the hull here
    sc = SupConvSpec(unit_tent, 2.0)
    pts = grid_1d(0, 1, 5)
    table = sample_table(sc, pts)
    assert table.shape == (5, 3)
    assert np.allclose(table[:, 1], table[:, 2], atol=1e-8)


def test_phi_on_grid_consistent(unit_tent):
    sc = SupConvSpec(unit_tent, 2.0)
    pts = grid_1d(-0.5, 1.5, 21)
    vals = phi_on_grid(sc, pts)
    for z, v in zip(pts, vals):
        assert phi_value(z, sc) == pytest.approx(v, abs=1e-10)
