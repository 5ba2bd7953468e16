import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmvi import (
    LPProblem,
    Polytope,
    ProblemSpec,
    TentSpec,
    dist_to_hull,
    eps_superdiff_check_psi,
    psi_eval,
    psi_supergradient,
    run,
    solve_lp,
    tent_increment_bound_check,
    verify_certificate,
)
from mdmvi.geometry import sample_set
from mdmvi.oracles import psi_brute
from mdmvi.tent import psi_on_grid, psi_value

from boundary_reference import reference_boundary_samples
from conftest import grid_1d


class TestTentSpec:
    def test_rejects_equal_levels(self, seg_a, seg_b):
        with pytest.raises(ValueError):
            TentSpec(seg_a, seg_b, 0.7, 0.7)

    def test_rejects_dimension_mismatch(self, seg_a):
        with pytest.raises(ValueError):
            TentSpec(seg_a, Polytope([[0.0, 1.0]]), 0.0, 1.0)


class TestPsiEval:
    def test_segment_interpolation(self, unit_tent):
        v = psi_eval(0.25, unit_tent)
        assert v.value == pytest.approx(0.25, abs=1e-9)
        assert v.lam == pytest.approx(0.75, abs=1e-9)

    def test_outside_hull(self, unit_tent):
        v = psi_eval(2.0, unit_tent)
        assert v.value == -np.inf and v.coords is None

    def test_two_dimensional_band(self):
        # brute scan over (lam, u, v) grids pins the value; the first
        # coordinate forces lam = 0.5 so the tent reads 0.5*1 + 0.5*3 = 2
        A = Polytope([[0.0, 0.0], [0.0, 1.0]])
        B = Polytope([[2.0, 0.0], [2.0, 1.0]])
        t = TentSpec(A, B, 1.0, 3.0)
        v = psi_eval([1.0, 0.5], t)
        lam = np.linspace(0, 1, 1001)
        us = np.linspace(0, 1, 101)
        best = -np.inf
        for lv in lam:
            if abs(lv * 0.0 + (1 - lv) * 2.0 - 1.0) > 2e-3:
                continue
            for u2 in us:
                for v2 in us:
                    pt = lv * np.array([0.0, u2]) + (1 - lv) * np.array([2.0, v2])
                    if np.linalg.norm(pt - [1.0, 0.5]) <= 1.5e-2:
                        best = max(best, lv * 1.0 + (1 - lv) * 3.0)
        assert v.value == pytest.approx(2.0, abs=1e-9)
        assert v.value == pytest.approx(best, abs=5e-2)

    def test_concavity_on_sampled_pairs(self, unit_tent):
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.0, 1.0, size=(40, 2))
        for a, b in xs:
            mid = psi_value([(a + b) / 2], unit_tent)
            assert mid >= 0.5 * psi_value([a], unit_tent) + 0.5 * psi_value(
                [b], unit_tent
            ) - 1e-7

    def test_range_between_levels(self):
        A = Polytope([[0.0], [0.2]])
        B = Polytope([[0.7], [1.0]])
        t = TentSpec(A, B, 2.0, -1.0)
        for x in np.linspace(0.0, 1.0, 41):
            v = psi_value([x], t)
            if np.isfinite(v):
                assert -1.0 - 1e-7 <= v <= 2.0 + 1e-7

    def test_anchor_levels_at_vertices(self):
        A = Polytope([[0.0, 0.0], [0.0, 1.0]])
        B = Polytope([[2.0, 0.0], [2.0, 1.0]])
        t = TentSpec(A, B, 1.0, 3.0)
        for a in A.vertices:
            assert psi_value(a, t) >= 1.0 - 1e-9
        for b in B.vertices:
            assert psi_value(b, t) >= 3.0 - 1e-9

    def test_oracle_equivalence_1d(self, unit_tent):
        for x in np.linspace(0.0, 1.0, 41):
            assert psi_value([x], unit_tent) == pytest.approx(
                psi_brute([x], unit_tent, 100_000), abs=1e-4
            )

    def test_near_anchor_distance_bound(self, unit_tent):
        # tent values near the level s force proximity to B, with the
        # interpolation weight witnessing the rate
        from mdmvi import dist_to_hull

        diam = 1.0
        for x in np.linspace(0.0, 1.0, 21):
            v = psi_eval([x], unit_tent)
            d = dist_to_hull([x], unit_tent.B, unit_tent.B).d
            bound = abs(unit_tent.s - v.value) / abs(unit_tent.s - unit_tent.r)
            assert d <= bound * diam + 1e-6
            assert v.lam == pytest.approx(bound, abs=1e-9)


class TestEpsSuperdiff:
    def test_exact_slope_passes(self, unit_tent):
        ok, worst = eps_superdiff_check_psi(
            [1.0], [0.5], 0.0, unit_tent, grid_1d(0, 1, 101)
        )
        assert ok and worst <= 1e-9

    def test_zero_slope_fails_with_half_violation(self, unit_tent):
        ok, worst = eps_superdiff_check_psi(
            [0.0], [0.5], 0.0, unit_tent, grid_1d(0, 1, 101)
        )
        assert not ok
        assert worst == pytest.approx(0.5, abs=1e-9)

    def test_slack_absorbs_violation(self, unit_tent):
        ok, worst = eps_superdiff_check_psi(
            [0.0], [0.5], 0.5, unit_tent, grid_1d(0, 1, 101)
        )
        assert ok and worst <= 1e-12

    def test_rejects_outside_point(self, unit_tent):
        with pytest.raises(ValueError):
            eps_superdiff_check_psi([1.0], [2.0], 0.0, unit_tent, grid_1d(0, 1, 11))

    def test_lp_dual_is_global_supergradient(self):
        A = Polytope([[0.0, 0.0], [0.0, 1.0]])
        B = Polytope([[2.0, 0.0], [2.0, 1.0]])
        t = TentSpec(A, B, 1.0, 3.0)
        grid = np.array(
            [[x, y] for x in np.linspace(0, 2, 21) for y in np.linspace(0, 1, 11)]
        )
        for x0 in ([0.5, 0.5], [1.7, 0.2], [1.0, 0.9]):
            p = psi_supergradient(x0, t)
            ok, _ = eps_superdiff_check_psi(p, x0, 0.0, t, grid)
            assert ok


class TestIncrementBound:
    def test_exact_supergradient_zero_eps(self, unit_tent):
        holds, lhs, rhs = tent_increment_bound_check([1.0], [0.5], 0.0, unit_tent)
        assert holds
        assert lhs == pytest.approx(-1.0, abs=1e-12)
        assert rhs == pytest.approx(-1.0, abs=1e-12)

    def test_eps_relaxes_bound(self, unit_tent):
        holds, lhs, rhs = tent_increment_bound_check([1.0], [0.5], 0.1, unit_tent)
        assert holds
        assert rhs == pytest.approx(-0.8, abs=1e-12)

    def test_equality_case_at_anchor(self, unit_tent):
        holds, lhs, rhs = tent_increment_bound_check([1.0], [0.0], 0.0, unit_tent)
        assert holds
        assert lhs == pytest.approx(-1.0, abs=1e-12)
        assert rhs == pytest.approx(-1.0, abs=1e-12)

    def test_guards_division_by_level_gap(self, unit_tent):
        with pytest.raises(ValueError):
            tent_increment_bound_check([1.0], [1.0], 0.0, unit_tent)


def test_psi_on_grid_matches_pointwise(unit_tent):
    grid = grid_1d(-0.2, 1.2, 15)
    vals = psi_on_grid(unit_tent, grid)
    for z, v in zip(grid, vals):
        assert psi_value(z, unit_tent) == v


def lp_tent(x, t: TentSpec):
    """The tent as its hull-decomposition LP: maximize the levels over
    convex weights of the vertices that reproduce x."""
    V = t.V
    return solve_lp(
        LPProblem(
            objective=t.levels,
            eq_matrix=np.vstack([V.T, np.ones((1, len(V)))]),
            eq_rhs=np.concatenate([x, [1.0]]),
        )
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    m_a=st.integers(1, 5),
    m_b=st.integers(1, 5),
    flat=st.booleans(),
    shared=st.booleans(),
    where=st.sampled_from(["inside", "vertex", "outside", "outside_on_span"]),
)
def test_facet_tent_matches_the_lp(seed, dim, m_a, m_b, flat, shared, where):
    """Against the LP: same membership away from the boundary, same value;
    coordinates that are convex weights reproducing x with lam read off the
    value; a slope that is a supergradient at every lifted vertex; and the
    batched grid read equals the pointwise one."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, dim)) if flat and dim > 1 else dim
    span = rng.normal(size=(k, dim))
    origin = rng.normal(size=dim)
    A = Polytope(origin + rng.normal(size=(m_a, k)) @ span)
    B_rows = origin + rng.normal(size=(m_b, k)) @ span
    if shared:
        B_rows[0] = A.vertices[-1]  # a vertex in both sets, at both levels
    B = Polytope(B_rows)
    r, s = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    if abs(r - s) < 0.1:
        s = r + 0.5
    t = TentSpec(A, B, r, s)
    V = t.V
    if where == "inside":
        x = rng.dirichlet(np.ones(len(V))) @ V
    elif where == "vertex":
        x = V[int(rng.integers(len(V)))].copy()
    elif where == "outside":
        x = origin + 2.0 * rng.normal(size=dim)
    else:
        x = origin + 3.0 * rng.normal(size=k) @ span

    v = psi_eval(x, t)
    ref = lp_tent(x, t)
    if where in ("inside", "vertex"):
        assert ref.status == "optimal" and np.isfinite(v.value)
    elif dist_to_hull(x, A, B).d > 1e-8:
        assert ref.status == "infeasible" and v.value == -np.inf
    if ref.status == "optimal" and np.isfinite(v.value):
        assert v.value == pytest.approx(ref.value, abs=1e-9)
        w = v.coords.weights()
        assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
        assert np.allclose(w @ V, x, rtol=0.0, atol=1e-8)
        assert v.lam == pytest.approx((v.value - s) / (r - s), abs=1e-9)
        gains = t.levels - v.value - (V - x) @ v.slope
        assert gains.max() <= 1e-9
    if v.coords is None:
        assert v.slope is None
    pts = np.vstack([x, V, origin + 2.0 * rng.normal(size=(3, dim))])
    assert np.array_equal(psi_on_grid(t, pts), [psi_value(z, t) for z in pts])


# the point pair of a 3-D stress spec, moved off the coordinate planes
SHIFT_3D = np.array([-0.807, 0.013, -0.207])


def test_slope_stays_in_a_segment_hull():
    """The supergradient of a tent over a segment in 3-D lies along the
    segment; a slope with a component across it is steeper than the tent."""
    A = Polytope([[0.0, 0.0, 0.0]] + SHIFT_3D)
    B = Polytope([[2.0, 0.0, 0.0]] + SHIFT_3D)
    t = TentSpec(A, B, 0.0, 0.7)
    for lam in (0.0, 0.3, 1.0):
        v = psi_eval(lam * A.vertices[0] + (1 - lam) * B.vertices[0], t)
        assert np.linalg.norm(v.slope) == pytest.approx(0.35, abs=1e-12)


def test_shifted_point_pair_certifies():
    """The smoothing of the shifted 3-D pair is the tent near the segment,
    so no smoothing evaluation is left uncertified."""
    spec = {
        "function": {"id": "linear", "params": {"a": [1.0, 0.0, 0.0], "b": 0.807}},
        "A": ([[0.0, 0.0, 0.0]] + SHIFT_3D).tolist(),
        "B": ([[2.0, 0.0, 0.0]] + SHIFT_3D).tolist(),
        "delta": 0.5,
        "mu": -0.7,
        "s": 1.3,
        "epsilon": 0.1,
        "resolution": 11,
        "seed": 3,
    }
    ps = ProblemSpec.from_json_dict(spec)
    valid, report = verify_certificate(run(ps), ps)
    assert valid, report


def test_boundary_samples_on_a_rotated_hull():
    """No grid point lies on a slanted edge, so the vertices seed the
    reference points on the boundary of the inflated hull."""
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    A = Polytope(np.array([[0.0, 0.0], [0.0, 1.0]]) @ R.T)
    B = Polytope(np.array([[2.0, 0.0], [2.0, 1.0]]) @ R.T)
    pts = reference_boundary_samples(A, B, 0.5, sample_set(A, B, 0.0, 41))
    assert len(pts) > 0
    for z in pts:
        assert dist_to_hull(z, A, B).d == pytest.approx(0.5, abs=1e-9)
