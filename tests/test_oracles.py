import numpy as np
import pytest

from mdmvi import Polytope, SupConvSpec, TentSpec, linear, l2_norm, quadratic
from mdmvi.oracles import (
    _box_grid,
    _hull_support_gap,
    _sphere_net,
    grid_inf,
    phi_brute,
    psi_brute,
)


class TestGridInf:
    def test_linear_over_inflated_segment(self, seg_a, seg_b):
        est = grid_inf(linear([1.0]), seg_a, seg_b, 0.5, 201)
        assert est.value == pytest.approx(-0.5, abs=1e-9)
        assert est.argmin[0] == pytest.approx(-0.5, abs=1e-9)

    def test_norm_over_hull(self, seg_a, seg_b):
        est = grid_inf(l2_norm([0.0]), seg_a, seg_b, 0.0, 201)
        assert est.value == pytest.approx(0.0, abs=1e-9)

    def test_boundary_minimum_of_quadratic(self, seg_b):
        # f = (x - 0.3)^2 / 2 over [0.5, 1.5] bottoms out at the left edge
        f = quadratic([[1.0]], [-0.3])
        est = grid_inf(f, seg_b, seg_b, 0.5, 201)
        shift = 0.5 * 0.3**2  # catalog quadratic has no constant term
        assert est.value + shift == pytest.approx(0.02, abs=1e-6)
        assert est.argmin[0] == pytest.approx(0.5, abs=1e-9)

    def test_meaningful_step_reported(self, seg_a, seg_b):
        est = grid_inf(linear([1.0]), seg_a, seg_b, 0.5, 101)
        assert est.step == pytest.approx(2.0 / 100, abs=1e-12)

    def test_all_infinite_errors(self, seg_a, seg_b):
        from mdmvi import restricted

        f = restricted(linear([1.0]), Polytope([[7.0], [8.0]]))
        with pytest.raises(ValueError):
            grid_inf(f, seg_a, seg_b, 0.1, 21)

    def test_rejects_small_resolution(self, seg_a, seg_b):
        with pytest.raises(ValueError):
            grid_inf(linear([1.0]), seg_a, seg_b, 0.0, 1)


class TestPsiBrute:
    def test_interpolation(self, unit_tent):
        v = psi_brute([0.25], unit_tent, 10_000)
        assert v == pytest.approx(0.25, abs=1e-4)

    def test_outside_hull(self, unit_tent):
        assert psi_brute([2.0], unit_tent, 1000) == -np.inf

    def test_reversed_levels(self, seg_a, seg_b):
        t = TentSpec(seg_a, seg_b, 2.0, 1.0)
        assert psi_brute([0.5], t, 1000) == pytest.approx(1.5, abs=2e-3)

    def test_error_shrinks_with_resolution(self, unit_tent):
        from mdmvi.tent import psi_value

        # sample at points incommensurate with every grid so quantization
        # error is actually exercised
        xs = [k / 7.3 for k in range(1, 7)]
        errs = []
        for res in (100, 1000, 10_000):
            worst = max(
                abs(psi_brute([x], unit_tent, res) - psi_value([x], unit_tent))
                for x in xs
            )
            errs.append(worst)
        assert errs[2] < errs[0]
        assert errs[2] <= 1e-3
        # roughly linear decay in the grid step
        assert errs[2] <= errs[0] / 10


class TestPhiBrute:
    def test_decay_outside(self, unit_tent):
        sc = SupConvSpec(unit_tent, 1.0)
        assert phi_brute([2.0], sc, 1000) == pytest.approx(0.0, abs=2e-3)

    def test_huge_K_collapses_to_tent(self, unit_tent):
        sc = SupConvSpec(unit_tent, 1e6)
        x = [0.4]
        assert phi_brute(x, sc, 2000) == pytest.approx(
            psi_brute(x, unit_tent, 2000), abs=1e-2
        )

    def test_vertex_keeps_level(self, unit_tent):
        sc = SupConvSpec(unit_tent, 3.0)
        assert phi_brute([1.0], sc, 1000) >= unit_tent.s - 1e-3


@pytest.mark.parametrize(
    "a, b, resolution, count",
    [
        ([[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]], 301, 512),
        ([[0.0, 0.0, 0.0]], [[1.0, 0.5, 0.0], [0.2, 0.3, 1.0]], 21, 2048),
    ],
)
def test_chunked_support_gap_equals_the_one_shot_expression(a, b, resolution, count):
    A, B = Polytope(a), Polytope(b)
    V = np.vstack([A.vertices, B.vertices])
    pts = _box_grid(V.min(axis=0) - 0.5, V.max(axis=0) + 0.5, resolution)
    dirs = _sphere_net(A.dim, count)
    support = np.maximum(np.max(A.vertices @ dirs.T, axis=0), np.max(B.vertices @ dirs.T, axis=0))
    one_shot = np.maximum(np.max(pts @ dirs.T - support[None, :], axis=1), 0.0)
    assert len(pts) > 4096
    assert np.array_equal(_hull_support_gap(pts, A, B, dirs), one_shot)
