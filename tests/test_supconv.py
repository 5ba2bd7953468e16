import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmvi import (
    Polytope,
    ProblemSpec,
    SupConvSpec,
    SupergradientError,
    TentSpec,
    phi_eval,
    phi_supergradient,
    run,
    superdiff_transfer_check,
    uv_disjoint,
    verify_certificate,
)
from mdmvi.oracles import phi_brute
from mdmvi.supconv import (
    NoAttainingPointError,
    PhiEvalError,
    level_sets,
    phi_on_grid,
    phi_supergradients,
    phi_value,
    sample_table,
)
from mdmvi.tent import _CHUNK, psi_eval, psi_on_grid, psi_value

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
            phi_eval(np.array([0.5]), sc)
        assert "gap" in str(err.value)

    @pytest.mark.parametrize("gap, refused", [(1e-4, False), (2e-4, True)])
    def test_certified_gap_above_1e_4_is_refused(self, unit_tent, monkeypatch, gap, refused):
        import mdmvi.supconv as sp

        real = sp._kernel
        monkeypatch.setattr(
            sp, "_kernel", lambda sc, X: real(sc, X)._replace(gap=np.full(len(X), gap))
        )
        sc, x = SupConvSpec(unit_tent, 2.0), np.array([0.5])
        if refused:
            for evaluate in (lambda: phi_eval(x, sc), lambda: phi_on_grid(sc, x[None, :])):
                with pytest.raises(PhiEvalError, match="gap 2.000e-04"):
                    evaluate()
            assert np.isnan(sp.phi_rows(sc, x[None, :])).all()  # left to its reader
        else:
            assert phi_eval(x, sc).gap == gap
            assert phi_on_grid(sc, x[None, :]) == phi_value(x, sc)
            assert sp.phi_rows(sc, x[None, :]) == phi_value(x, sc)

    def test_rejects_bad_K(self, unit_tent):
        with pytest.raises(ValueError):
            SupConvSpec(unit_tent, 0.0)


class TestCertificateFirst:
    """The smoothing is read from the tent's faces in closed form, so
    neither an evaluation nor a whole run calls Frank-Wolfe."""

    @pytest.fixture
    def plane_sc(self):
        # plane_2d's tent and smoothing, as its run chooses them
        A = Polytope([[0.0, 0.0], [0.0, 1.0]])
        B = Polytope([[2.0, 0.0], [2.0, 1.0]])
        return SupConvSpec(TentSpec(A, B, 0.0, 1.325), 4.081889763779527)

    @pytest.fixture
    def fw_calls(self, monkeypatch):
        """Calls of maximize_concave through any mdmvi module that binds it."""
        import sys

        import mdmvi.simplex_optim as so

        calls = []
        real = so.maximize_concave

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "mdmvi" or name.startswith("mdmvi."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, spy)
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

    def test_exterior_point_needs_no_frank_wolfe(self, plane_sc, fw_calls):
        v = phi_eval([-0.3, 0.5], plane_sc)
        assert fw_calls == []
        assert v.gap <= 1e-12
        # attained on the edge A, 0.3 away
        assert np.array_equal(v.argmax, [0.0, 0.5])
        assert v.value == pytest.approx(-0.3 * plane_sc.K, abs=1e-12)

    def test_run_makes_no_frank_wolfe_call(self, problems_dir, fw_calls):
        ps = ProblemSpec.from_json_file(problems_dir / "plane_2d.json")
        cert = run(ps)
        assert verify_certificate(cert, ps)[0]
        assert fw_calls == []

    def test_vertices_are_scored_from_the_tent(self, plane_sc):
        """The kernel scores a vertex by its level, which is the tent there:
        far from the hull the smoothing is the best vertex's cone."""
        V = plane_sc.tent.V
        vertex_psi = psi_on_grid(plane_sc.tent, V)
        assert np.array_equal(vertex_psi, [psi_value(v, plane_sc.tent) for v in V])
        for x in ([-3.0, -2.0], [5.0, 4.0], [1.0, -30.0]):
            v = phi_eval(x, plane_sc)
            cones = vertex_psi - plane_sc.K * np.linalg.norm(
                V - np.asarray(x), axis=1
            )
            assert v.value <= cones.max() + v.gap + 1e-12
            assert v.value >= cones.max() - 1e-12


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

    def test_verification_failure_raises(self, unit_tent, monkeypatch):
        import mdmvi.supconv as supconv

        sc = SupConvSpec(unit_tent, 2.0)
        monkeypatch.setattr(supconv, "SUPER_TOL", -1.0)
        with pytest.raises(SupergradientError):
            phi_supergradient([0.5], sc, grid=grid_1d(-1, 2, 61))

    @pytest.mark.parametrize("shape", [(1,), (60,), (62,), (61, 1)])
    def test_grid_values_must_be_one_per_grid_row(self, unit_tent, shape):
        # one value used to broadcast over the grid and pass the check
        sc = SupConvSpec(unit_tent, 2.0)
        grid, wrong = grid_1d(-1, 2, 61), np.full(shape, -100.0)
        with pytest.raises(ValueError, match="grid_phi"):
            phi_supergradient([0.5], sc, grid=grid, grid_phi=wrong)
        with pytest.raises(ValueError, match="grid_phi"):
            phi_supergradients([[0.5], [2.0]], sc, grid=grid, grid_phi=wrong)

    def test_batch_gives_each_rows_supergradient(self, unit_tent, monkeypatch):
        # the batch's p and acceptance are phi_supergradient's at each row,
        # bit for bit, across both modes and a refused check
        import mdmvi.supconv as supconv

        sc = SupConvSpec(unit_tent, 2.0)
        grid = grid_1d(-1, 2, 61)
        Y = np.array([[-0.7], [0.5], [0.25], [1.6], [2.0], [1.0 + 1e-7]])
        for tol in (supconv.SUPER_TOL, 0.2, -1.0):
            monkeypatch.setattr(supconv, "SUPER_TOL", tol)
            sg = phi_supergradients(Y, sc, grid=grid)
            assert sg.refused == len(Y) and len(sg.p) == len(Y)
            for y, p, ok, fallback in zip(Y, sg.p, sg.ok, sg.fallback):
                try:
                    one = phi_supergradient(y, sc, grid=grid)
                except SupergradientError:
                    assert not ok
                    continue
                assert ok and p.tobytes() == one.p.tobytes()
                assert fallback == (one.mode == "fallback")
            assert sg.fallback.any() and not sg.fallback.all()


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

    def test_disjoint_up_to_the_threshold_and_not_beyond(self, unit_tent):
        sc = SupConvSpec(unit_tent, 2.0)
        grid, ybar, s_anchor = grid_1d(-0.2, 1.2, 141), np.array([0.3]), 1.0
        c = level_sets(ybar, sc, s_anchor, grid, psi_on_grid(unit_tent, grid)).threshold
        assert 0.0 < c < np.inf
        assert uv_disjoint(ybar, c, sc, s_anchor, grid)
        assert not uv_disjoint(ybar, np.nextafter(c, np.inf), sc, s_anchor, grid)

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


def test_phi_on_grid_equals_pointwise_bit_for_bit():
    """The batched kernel gives every row the bits it gets alone, across
    chunk boundaries too; an empty grid gives no values."""
    A = Polytope([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    B = Polytope([[2.0, 0.0, 0.0], [2.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    sc = SupConvSpec(TentSpec(A, B, 0.0, 1.3), 1.7)
    pts = np.random.default_rng(5).uniform(-1.0, 3.0, size=(5000, 3))
    vals = phi_on_grid(sc, pts)
    assert len(pts) * len(sc.faces.level) > _CHUNK
    assert np.array_equal(vals, [phi_value(z, sc) for z in pts])
    assert phi_on_grid(sc, np.empty((0, 3))).shape == (0,)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 3),
    m_a=st.integers(1, 5),
    m_b=st.integers(1, 5),
    flat=st.booleans(),
    shared=st.booleans(),
    where=st.sampled_from(["inside", "vertex", "on", "outside", "far"]),
    log_k=st.floats(np.log(0.2), np.log(10.0)),
)
def test_faces_match_frank_wolfe(seed, dim, m_a, m_b, flat, shared, where, log_k):
    """Against the Frank-Wolfe evaluation it replaced: the same value where
    that one is certified, and never outside its bounds; a certified gap of
    at most 1e-7; hull coordinates that reproduce the attaining point; and
    the batched grid read equal to the pointwise one."""
    from fw_reference import fw_phi_eval
    from mdmvi import dist_to_hull

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
    sc = SupConvSpec(TentSpec(A, B, r, s), float(np.exp(log_k)))
    V = sc.tent.V
    if where == "inside":
        x = rng.dirichlet(np.ones(len(V))) @ V
    elif where == "vertex":
        x = V[int(rng.integers(len(V)))].copy()
    elif where == "on":
        x = dist_to_hull(origin + 2.0 * rng.normal(size=dim), A, B).point
    elif where == "outside":
        x = origin + rng.normal(size=dim)
    else:
        x = origin + 20.0 * rng.normal(size=dim)

    v = phi_eval(x, sc)
    ref = fw_phi_eval(x, sc)
    assert v.gap <= 1e-7
    if ref.upper - ref.value <= 1e-10:
        assert v.value == pytest.approx(ref.value, abs=1e-9)
    assert ref.value - 1e-9 <= v.value <= ref.upper + 1e-9
    assert dist_to_hull(v.argmax, A, B).d <= 1e-7
    pts = np.vstack([x, V, origin + 2.0 * rng.normal(size=(3, dim))])
    assert np.array_equal(phi_on_grid(sc, pts), [phi_value(z, sc) for z in pts])


def test_skew_segments_in_3d_end_typed():
    """Two skew segments in 3-D: Frank-Wolfe left a smoothing value with
    gap 1.1e-3 and raised PhiEvalError; the face kernel certifies it, and
    the run ends in a certificate or a typed error."""
    from mdmvi import CertificateSearchError, SpecInvariantError, choose_params

    spec = {
        "function": {"id": "linear", "params": {"a": [1.0, 0.0, 0.0], "b": 0.0}},
        "A": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "B": [[2.0, 0.0, 0.0], [2.0, 0.0, 1.0]],
        "delta": 0.5,
        "mu": -0.7,
        "s": 1.3,
        "epsilon": 0.1,
        "resolution": 11,
        "seed": 3,
    }
    ps = ProblemSpec.from_json_dict(spec)
    params = choose_params(ps)
    sc = SupConvSpec(TentSpec(ps.A, ps.B, params.r, params.s1), params.K)
    v = phi_eval([0.19999997419602183, 0.5, 0.10000000000000009], sc)
    assert v.gap <= 1e-12
    assert v.value == pytest.approx(0.1325, abs=1e-4)
    try:
        cert = run(ps)
    except (CertificateSearchError, SpecInvariantError):
        return
    assert verify_certificate(cert, ps)[0]
