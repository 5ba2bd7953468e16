"""A 2-D quadratic spec with a 4-vertex A and a 5-vertex B.

Its descent probes up to a full span outside C.  There, hull weights
read off a membership LP could fail their own sum-to-one check and end
the run in a bare ValueError.  Every run must end in a certificate that
the verifier accepts or in one of the pipeline's documented errors.
"""

import pytest

import mdmvi.ekeland as ekeland
import mdmvi.mdmvt as mdmvt
from mdmvi import CertificateSearchError, ProblemSpec, SpecInvariantError, run, verify_certificate

MULTIVERTEX_2D = {
    "function": {"id": "quadratic", "params": {"Q": [[1.0, 0.2], [0.2, 1.0]], "a": [0.0, 0.0]}},
    "A": [[0.0, 0.0], [0.6, 0.0], [0.6, 0.6], [0.0, 0.6]],
    "B": [[2.0866, 0.0887], [1.8042, 0.3], [1.516, 0.0967], [1.6202, -0.2402], [1.9729, -0.2452]],
    "delta": 0.5,
    "mu": -0.1,
    "s": 0.41,
    "epsilon": 0.1,
    "resolution": 11,
    "seed": 1,
}


def test_multivertex_2d_ends_in_a_certificate_or_a_documented_error():
    ps = ProblemSpec.from_json_dict(MULTIVERTEX_2D)
    try:
        cert = run(ps)
    except (CertificateSearchError, SpecInvariantError):
        return
    valid, report = verify_certificate(cert, ps)
    assert valid, report


def test_pair_search_evaluates_no_point_twice_in_a_run(monkeypatch):
    ps = ProblemSpec.from_json_dict(MULTIVERTEX_2D)
    seen = {"phi": [], "f": []}
    real_sg, real_sub = ekeland.phi_supergradient, ekeland.f_subgrad

    def sg_spy(y, *args, **kwargs):
        seen["phi"].append(y.tobytes())
        return real_sg(y, *args, **kwargs)

    def sub_spy(f, x):
        seen["f"].append(x.tobytes())
        return real_sub(f, x)

    monkeypatch.setattr(ekeland, "phi_supergradient", sg_spy)
    monkeypatch.setattr(ekeland, "f_subgrad", sub_spy)
    with pytest.raises(CertificateSearchError):
        run(ps)
    assert seen["phi"] and len(seen["phi"]) == len(set(seen["phi"]))
    assert seen["f"] and len(seen["f"]) == len(set(seen["f"]))


def test_run_searches_for_one_pair(monkeypatch):
    calls = []
    real_pair = mdmvt.fuzzy_pair

    def spy(*args, **kwargs):
        calls.append(args)
        return real_pair(*args, **kwargs)

    monkeypatch.setattr(mdmvt, "fuzzy_pair", spy)
    with pytest.raises(CertificateSearchError):
        run(ProblemSpec.from_json_dict(MULTIVERTEX_2D))
    assert len(calls) == 1
