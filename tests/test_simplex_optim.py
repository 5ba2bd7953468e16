import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmvi import (
    ConcaveObjective,
    LPProblem,
    Polytope,
    UnboundedLPError,
    maximize_concave,
    solve_lp,
)
from mdmvi.geometry import HullCoords


def distance_objective(A, B, x0):
    """Concave objective -||point(c) - x0|| over the joint vertex simplex."""
    V = np.vstack([A.vertices, B.vertices])
    x0 = np.asarray(x0, dtype=float)

    def value(c: HullCoords) -> float:
        return -float(np.linalg.norm(c.weights() @ V - x0))

    def supergrad(c: HullCoords) -> np.ndarray:
        diff = c.weights() @ V - x0
        nrm = np.linalg.norm(diff)
        if nrm < 1e-14:
            return np.zeros(V.shape[0])
        return -V @ diff / nrm

    return ConcaveObjective(value=value, supergrad=supergrad)


class TestSolveLP:
    def test_vertex_optimum(self):
        lp = LPProblem(
            objective=[1.0, 0.0],
            eq_matrix=[[1.0, 1.0]],
            eq_rhs=[1.0],
        )
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert np.allclose(res.x, [1.0, 0.0], atol=1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        lp = LPProblem(objective=[0.0], eq_matrix=[[0.0]], eq_rhs=[1.0])
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded_raises(self):
        lp = LPProblem(objective=[1.0, 0.0], eq_matrix=[[0.0, 1.0]], eq_rhs=[0.0])
        with pytest.raises(UnboundedLPError):
            solve_lp(lp)

    def test_tent_lp_against_dense_scan(self):
        # max 0*g0 + 1*g1 s.t. 0*g0 + 1*g1 = 0.25, g0 + g1 = 1
        lp = LPProblem(
            objective=[0.0, 1.0],
            eq_matrix=[[0.0, 1.0], [1.0, 1.0]],
            eq_rhs=[0.25, 1.0],
        )
        res = solve_lp(lp)
        lam = np.arange(0.0, 1.0 + 1e-5, 1e-5)
        feasible = np.abs((1 - lam) - 0.25) <= 5e-6
        brute = float(np.max((1 - lam)[feasible]))
        assert res.value == pytest.approx(0.25, abs=1e-9)
        assert res.value == pytest.approx(brute, abs=2e-5)

    def test_segment_interpolation_family(self):
        # max r*g + s*e s.t. point equality and weight normalization has
        # analytic value r + (s - r) * x on the unit segment
        for x, r, s in [(0.3, 0.0, 1.0), (0.8, 2.0, -1.0), (0.5, -0.4, 0.7)]:
            lp = LPProblem(
                objective=[r, s],
                eq_matrix=[[0.0, 1.0], [1.0, 1.0]],
                eq_rhs=[x, 1.0],
            )
            res = solve_lp(lp)
            assert res.value == pytest.approx(r + (s - r) * x, abs=1e-9)

    def test_negative_rhs_handled(self):
        lp = LPProblem(
            objective=[-1.0, -2.0],
            eq_matrix=[[-1.0, 0.0], [0.0, 1.0]],
            eq_rhs=[-2.0, 1.0],
        )
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert np.allclose(res.x, [2.0, 1.0], atol=1e-10)

    def test_duals_certify_value(self):
        lp = LPProblem(
            objective=[0.0, 1.0],
            eq_matrix=[[0.0, 1.0], [1.0, 1.0]],
            eq_rhs=[0.25, 1.0],
        )
        res = solve_lp(lp)
        # dual feasibility: A^T y >= c, and b @ y equals the optimum
        assert np.all(lp.eq_matrix.T @ res.dual >= lp.objective - 1e-9)
        assert float(lp.eq_rhs @ res.dual) == pytest.approx(res.value, abs=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LPProblem(objective=[np.nan], eq_matrix=[[1.0]], eq_rhs=[1.0])


class TestMaximizeConcave:
    def test_linear_objective_picks_best_vertex(self):
        w_coeff = np.array([0.1, 0.9, 0.3])

        obj = ConcaveObjective(
            value=lambda c: float(w_coeff @ c.weights()),
            supergrad=lambda c: w_coeff.copy(),
        )
        res = maximize_concave(obj, (1, 2), tol=1e-10)
        assert res.value == pytest.approx(0.9, abs=1e-9)
        assert res.coords.weights()[1] == pytest.approx(1.0, abs=1e-9)

    def test_distance_objective_interior_point(self, seg_a, seg_b):
        obj = distance_objective(seg_a, seg_b, [0.3])
        res = maximize_concave(obj, (1, 1), tol=1e-10)
        assert res.value == pytest.approx(0.0, abs=1e-8)

    def test_distance_objective_exterior_point(self):
        A = Polytope([[0.0, 0.0]])
        B = Polytope([[2.0, 0.0]])
        obj = distance_objective(A, B, [1.0, 1.0])
        res = maximize_concave(obj, (1, 1), tol=1e-10, max_iters=2000)
        lam = np.linspace(0.0, 1.0, 10_001)
        pts = lam[:, None] * np.array([2.0, 0.0])
        brute = float(np.max(-np.linalg.norm(pts - np.array([1.0, 1.0]), axis=1)))
        assert res.value == pytest.approx(-1.0, abs=1e-7)
        assert res.value == pytest.approx(brute, abs=1e-6)

    def test_values_monotone_nondecreasing(self):
        # truncating the iteration budget exposes the iterate sequence:
        # the value after k iterations never drops as k grows
        Q = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.0], [0.1, 0.0, 1.5]])
        x0 = np.array([0.2, 0.7, 0.4])

        obj = ConcaveObjective(
            value=lambda c: -float((c.weights() - x0) @ Q @ (c.weights() - x0)),
            supergrad=lambda c: -2.0 * Q @ (c.weights() - x0),
        )
        values = [
            maximize_concave(obj, (1, 2), tol=1e-14, max_iters=k).value
            for k in range(1, 12)
        ]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    def test_gap_bounds_suboptimality(self):
        w_coeff = np.array([0.5, 0.2])
        obj = ConcaveObjective(
            value=lambda c: float(w_coeff @ c.weights()),
            supergrad=lambda c: w_coeff.copy(),
        )
        res = maximize_concave(obj, (1, 1), tol=1e-10)
        assert res.upper_bound >= 0.5 - 1e-12
        assert res.converged

    def test_agrees_with_lp_on_linear(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            coeff = rng.uniform(-2, 2, size=4)
            obj = ConcaveObjective(
                value=lambda c, k=coeff: float(k @ c.weights()),
                supergrad=lambda c, k=coeff: k.copy(),
            )
            fw = maximize_concave(obj, (2, 2), tol=1e-10)
            lp = solve_lp(
                LPProblem(
                    objective=coeff,
                    eq_matrix=np.ones((1, 4)),
                    eq_rhs=[1.0],
                )
            )
            assert abs(fw.value - lp.value) <= 1e-7

    def test_rejects_nonfinite_objective(self):
        obj = ConcaveObjective(
            value=lambda c: float("nan"), supergrad=lambda c: np.zeros(2)
        )
        with pytest.raises(ValueError):
            maximize_concave(obj, (1, 1))

    def test_warm_start_validates(self):
        obj = ConcaveObjective(
            value=lambda c: 0.0, supergrad=lambda c: np.zeros(2)
        )
        with pytest.raises(ValueError):
            maximize_concave(obj, (1, 1), init=np.array([1.0, 2.0, 3.0]))


def test_objective_concavity_and_supergradient_inequality(seg_a, seg_b):
    # midpoint concavity and the supergradient inequality
    # value(c') <= value(c) + <g, c' - c> on sampled weight pairs
    from fw_reference import _objective
    from mdmvi.supconv import SupConvSpec
    from mdmvi.tent import TentSpec

    sc = SupConvSpec(TentSpec(seg_a, seg_b, 0.0, 1.0), 2.0)
    objectives = [
        distance_objective(seg_a, seg_b, [0.3]),
        _objective(np.array([1.7]), sc),
    ]
    rng = np.random.default_rng(9)
    for obj in objectives:
        for _ in range(60):
            w1 = rng.dirichlet(np.ones(2))
            w2 = rng.dirichlet(np.ones(2))
            c1 = HullCoords(w1[:1], w1[1:])
            c2 = HullCoords(w2[:1], w2[1:])
            mid = 0.5 * (w1 + w2)
            cm = HullCoords(mid[:1], mid[1:])
            assert obj.value(cm) >= 0.5 * (obj.value(c1) + obj.value(c2)) - 1e-8
            g = obj.supergrad(c1)
            assert obj.value(c2) <= obj.value(c1) + float(g @ (w2 - w1)) + 1e-8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_fw_linear_matches_max_coefficient(coeffs):
    arr = np.asarray(coeffs)
    obj = ConcaveObjective(
        value=lambda c: float(arr @ c.weights()), supergrad=lambda c: arr.copy()
    )
    res = maximize_concave(obj, (1, 2), tol=1e-10)
    assert res.value == pytest.approx(float(arr.max()), abs=1e-8)
