import numpy as np
import pytest

import mdmvi.mdmvt as mdmvt
from mdmvi import (
    CertificateSearchError,
    FuzzyPairError,
    ProblemSpec,
    SpecInvariantError,
    SupConvSpec,
    TentSpec,
    choose_params,
    f_eval,
    f_subgrad,
    linear,
    restrict_f,
    run,
    verify_certificate,
)
from mdmvi.check import Certificate, SpecFormatError
from mdmvi.mdmvt import _estimate_inf, boundary_samples
from mdmvi.ekeland import EvpReport
from mdmvi.geometry import Hull, sample_set
from mdmvi.supconv import phi_on_grid

from test_multivertex import MULTIVERTEX_2D


def make_spec(**overrides):
    data = {
        "function": {"id": "linear", "params": {"a": [1.0], "b": 0.0}},
        "A": [[0.0]],
        "B": [[1.0]],
        "delta": 0.5,
        "mu": -0.6,
        "s": 0.4,
        "epsilon": 0.1,
        "resolution": 201,
        "seed": 7,
    }
    data.update(overrides)
    return ProblemSpec.from_json_dict(data)


class TestChooseParams:
    def test_canonical_rule(self):
        ps = make_spec()
        params = choose_params(ps)
        assert params.r == pytest.approx(0.0, abs=1e-12)
        assert params.s1 == pytest.approx(0.425, abs=1e-12)
        # smallest dyadic split that clears the strict bound on K
        assert params.delta1 == pytest.approx(0.4921875, abs=1e-12)
        assert params.K == pytest.approx(1.025 / 0.4921875, abs=1e-9)
        assert params.K < (max(params.r, ps.s) - ps.mu) / ps.delta + ps.epsilon

    def test_collision_with_r_nudges_s1(self):
        # r equals the halfway value s + room/2 = 0.425, forcing the nudge
        ps = make_spec(
            function={"id": "linear", "params": {"a": [1.0], "b": 0.425}},
            mu=-0.2,
        )
        params = choose_params(ps)
        assert params.r == pytest.approx(0.425, abs=1e-12)
        assert params.s1 == pytest.approx(0.4375, abs=1e-12)

    def test_huge_epsilon_is_capped_by_level_gap(self):
        ps = make_spec(epsilon=10.0)
        params = choose_params(ps)
        assert params.s1 == pytest.approx(0.45, abs=1e-12)
        assert params.s1 < 0.5

    def test_invalid_s_rejected(self):
        ps = make_spec(s=0.6)  # above inf of f over the inflated B
        with pytest.raises(SpecInvariantError):
            choose_params(ps)


class TestRestrictF:
    def test_exterior_is_inf(self, seg_a, seg_b):
        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        assert f_eval(f1, [2.0]) == np.inf

    def test_interior_delegates(self, seg_a, seg_b):
        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        assert f_eval(f1, [0.0]) == 0.0
        assert [g[0] for g in f_subgrad(f1, [0.0])] == [1.0]

    def test_boundary_keeps_value_drops_subgradients(self, seg_a, seg_b):
        f1 = restrict_f(linear([1.0]), seg_a, seg_b, 0.5)
        assert f_eval(f1, [1.5]) == pytest.approx(1.5)
        assert f_subgrad(f1, [1.5]) == []


@pytest.fixture(scope="module")
def result():
    ps = make_spec(resolution=401)
    cert = run(ps)
    return ps, cert


class TestRunCanonical:
    def test_certificate_values(self, result):
        ps, cert = result
        assert abs(cert.xi[0]) <= 0.01
        assert cert.p[0] == pytest.approx(1.0, abs=1e-9)
        assert cert.checks["mean_value_increment"].slack == pytest.approx(0.6, abs=1e-6)
        assert cert.checks["subgradient_norm"].slack == pytest.approx(1.1, abs=1e-9)
        assert cert.checks["value_localization"].slack >= 0.49

    def test_interiority_and_separation_witness(self, result):
        _, cert = result
        assert cert.diagnostics["interior_margin"] > 0.0
        assert cert.diagnostics["level_separation_c"] > 0.0

    def test_boundary_decay_margin(self, result):
        _, cert = result
        assert cert.diagnostics["boundary_margin"] > 0.0

    def test_grid_infimum_of_g_nonpositive(self, result):
        _, cert = result
        assert cert.diagnostics["grid_inf_g"] <= 1e-6

    def test_boundary_g_positive(self, result):
        _, cert = result
        assert cert.diagnostics["boundary_g_inf"] > 0.0

    def test_s1_tightens_level_gap(self, result):
        ps, cert = result
        assert abs(cert.params.r - cert.params.s1) < abs(cert.params.r - ps.s) + ps.epsilon

    def test_verify_accepts(self, result):
        ps, cert = result
        valid, report = verify_certificate(cert, ps)
        assert valid, report

    def test_verify_rejects_flipped_slope(self, result):
        ps, cert = result
        bad = Certificate(
            xi=cert.xi,
            p=-cert.p,
            checks=cert.checks,
            params=cert.params,
            diagnostics=cert.diagnostics,
            tolerances=cert.tolerances,
        )
        valid, report = verify_certificate(bad, ps)
        assert not valid
        assert not report["mean_value_increment"]["ok"]

    def test_verify_rejects_displaced_point(self, result):
        ps, cert = result
        bad = Certificate(
            xi=np.array([2.0]),
            p=cert.p,
            checks=cert.checks,
            params=cert.params,
            diagnostics=cert.diagnostics,
            tolerances=cert.tolerances,
        )
        valid, report = verify_certificate(bad, ps)
        assert not valid
        assert not report["xi_membership"]["ok"]

    def test_json_roundtrip(self, result):
        _, cert = result
        again = Certificate.from_json_dict(cert.to_json_dict())
        assert np.allclose(again.xi, cert.xi)
        assert np.allclose(again.p, cert.p)
        assert again.params.K == cert.params.K


def band_spec():
    return ProblemSpec.from_json_dict(
        {
            "function": {"id": "linear", "params": {"a": [1.0, 0.0], "b": 0.0}},
            "A": [[0.0, 0.0], [0.0, 1.0]],
            "B": [[2.0, 0.0], [2.0, 1.0]],
            "delta": 0.5,
            "mu": -0.7,
            "s": 1.3,
            "epsilon": 0.1,
            "resolution": 21,
            "seed": 3,
        }
    )


class TestRunTwoDimensional:
    def test_band_instance(self):
        ps = band_spec()
        cert = run(ps)
        assert np.allclose(cert.p, [1.0, 0.0], atol=1e-9)
        assert cert.checks["mean_value_increment"].rhs == pytest.approx(2.0, abs=1e-9)
        assert cert.checks["mean_value_increment"].slack == pytest.approx(0.7, abs=1e-9)
        valid, _ = verify_certificate(cert, ps)
        assert valid


class TestCertificateSearch:
    def test_pair_search_failure_is_typed(self, monkeypatch):
        def no_pair(*args, **kwargs):
            raise FuzzyPairError("no pair here")

        monkeypatch.setattr(mdmvt, "fuzzy_pair", no_pair)
        with pytest.raises(CertificateSearchError, match="no pair here") as err:
            run(band_spec())
        assert isinstance(err.value.__cause__, FuzzyPairError)

    def test_names_every_failed_floor(self):
        # multivertex_2d finds a pair, whose slacks fall short of two floors
        with pytest.raises(CertificateSearchError) as err:
            run(ProblemSpec.from_json_dict(MULTIVERTEX_2D))
        msg = str(err.value)
        assert "value_localization: slack" in msg
        assert "mean_value_increment: slack" in msg
        assert "subgradient_norm" not in msg

    def test_failed_domination_check_rejects_the_candidate(self, monkeypatch):
        monkeypatch.setattr(mdmvt, "evp_check", lambda *a, **k: EvpReport(False, -1.0))
        with pytest.raises(CertificateSearchError, match="domination check"):
            run(band_spec())


class TestRunThreeDimensional:
    def test_prism_instance(self):
        # triangular prism hull in R^3; the slope certificate separates the
        # faces along the first coordinate
        ps = ProblemSpec.from_json_dict(
            {
                "function": {"id": "linear", "params": {"a": [1.0, 0.0, 0.0], "b": 0.0}},
                "A": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                "B": [[2.0, 0.0, 0.0], [2.0, 1.0, 0.0], [2.0, 0.0, 1.0]],
                "delta": 0.5,
                "mu": -0.7,
                "s": 1.3,
                "epsilon": 0.1,
                "resolution": 7,
                "seed": 29,
            }
        )
        cert = run(ps)
        assert np.allclose(cert.p, [1.0, 0.0, 0.0], atol=1e-9)
        assert cert.checks["mean_value_increment"].slack == pytest.approx(0.7, abs=1e-9)
        valid, _ = verify_certificate(cert, ps)
        assert valid


class TestSpecValidation:
    def test_empty_intersection_with_domain_rejected(self):
        from mdmvi import restricted

        spec = make_spec(resolution=41)
        data = spec.to_json_dict()
        data["function"] = {
            "id": "restricted",
            "params": {
                "base": {"id": "linear", "params": {"a": [1.0], "b": 0.0}},
                "domain": [[0.6], [0.9]],  # A = {0} misses the domain
            },
        }
        data["s"] = 0.5
        data["mu"] = -0.1
        with pytest.raises(SpecInvariantError, match=r"estimate inf_A: f is \+inf at all 1 points"):
            run(ProblemSpec.from_json_dict(data))

    def test_mu_above_infimum_rejected(self):
        with pytest.raises(SpecInvariantError):
            run(make_spec(mu=0.0, resolution=41))

    def test_s_above_infimum_rejected(self):
        with pytest.raises(SpecInvariantError):
            run(make_spec(s=0.7, resolution=41))

    def test_failed_estimate_is_named_with_its_value_and_argmin(self):
        ps = make_spec(mu=0.0, resolution=41)
        est = _estimate_inf(
            ps.f, Hull(ps.A, ps.B), ps.delta, 41, sample_set(ps.A, ps.B, ps.delta, 41), name="inf_C"
        )
        assert est.value == pytest.approx(-0.5)
        with pytest.raises(SpecInvariantError) as info:
            run(ps)
        named = f"estimate inf_C = {float(est.value)!r} at {est.argmin.tolist()}"
        assert "mu = 0.0" in str(info.value) and named in str(info.value)

        ps = make_spec(s=0.7, resolution=41)
        est = _estimate_inf(ps.f, Hull(ps.B, ps.B), ps.delta, 41, name="inf_B_inflated")
        for call in (run, choose_params):
            with pytest.raises(SpecInvariantError) as info:
                call(ps)
            named = f"estimate inf_B_inflated = {float(est.value)!r} at {est.argmin.tolist()}"
            assert "s = 0.7" in str(info.value) and named in str(info.value)

    def test_malformed_spec_rejected(self):
        with pytest.raises(SpecFormatError):
            ProblemSpec.from_json_dict({"function": {"id": "linear"}})

    def test_epsilon_monotonicity_of_norm_bound(self):
        ps_small = make_spec(epsilon=0.05)
        ps_large = make_spec(epsilon=0.1)
        r = 0.0
        rhs_small = (max(r, ps_small.s) - ps_small.mu) / ps_small.delta + ps_small.epsilon
        rhs_large = (max(r, ps_large.s) - ps_large.mu) / ps_large.delta + ps_large.epsilon
        assert rhs_small <= rhs_large


class TestEstimatesAndBoundary:
    def test_singleton_estimate_exact(self, seg_a):
        est = _estimate_inf(linear([1.0]), Hull(seg_a, seg_a), 0.0, 41, name="inf_A")
        assert est.value == 0.0 and est.step == 0.0

    def test_inflated_estimate_with_polish(self, seg_b):
        from mdmvi import quadratic

        est = _estimate_inf(
            quadratic([[1.0]], [-1.2]), Hull(seg_b, seg_b), 0.5, 81, name="inf_B_inflated"
        )
        # min of x^2/2 - 1.2 x over [0.5, 1.5] sits at 1.2
        assert est.value == pytest.approx(0.5 * 1.44 - 1.44, abs=1e-8)

    def test_boundary_samples_sit_on_boundary(self, seg_a, seg_b):
        from mdmvi import dist_to_hull

        pts = boundary_samples(Hull(seg_a, seg_b), 0.5, sample_set(seg_a, seg_b, 0.0, 41))
        assert len(pts) >= 2
        for x in pts:
            assert dist_to_hull(x, seg_a, seg_b).d == pytest.approx(0.5, abs=1e-9)

    def test_no_boundary_sample_is_a_typed_error(self, seg_a, seg_b, monkeypatch):
        """When no candidate lands at distance delta the search stage says
        so with a CertificateSearchError, not a bare RuntimeError."""
        from mdmvi.mdmvt import CertificateSearchError

        real = Hull.within

        def too_far(self, X, radius):  # every distance one unit larger
            return real(self, X, radius - 1.0)

        hull, hull_pts = Hull(seg_a, seg_b), sample_set(seg_a, seg_b, 0.0, 41)
        monkeypatch.setattr(Hull, "within", too_far)
        with pytest.raises(CertificateSearchError, match="boundary samples"):
            boundary_samples(hull, 0.5, hull_pts)

    def test_boundary_decay_strict_for_pipeline_K(self):
        ps = make_spec(resolution=201)
        params = choose_params(ps)
        sc = SupConvSpec(TentSpec(ps.A, ps.B, params.r, params.s1), params.K)
        pts = boundary_samples(Hull(ps.A, ps.B), ps.delta, sample_set(ps.A, ps.B, 0.0, 201))
        margins = ps.mu - phi_on_grid(sc, pts)
        assert margins.min() > 0.0
