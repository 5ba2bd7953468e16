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
    # one batch of the smoothing for every y, and one of f's subgradients
    # for every candidate x, each point in it once; no batch of f values
    ps = ProblemSpec.from_json_dict(MULTIVERTEX_2D)
    seen = {"phi": [], "f": [], "subgrad": []}
    in_pair = []
    real_pair = mdmvt.fuzzy_pair
    real_sg, real_f, real_sub = ekeland.phi_supergradients, ekeland.f_values, ekeland.f_subgrads

    def pair_spy(*args, **kwargs):
        in_pair.append(True)
        try:
            return real_pair(*args, **kwargs)
        finally:
            in_pair.pop()

    def spy(key, real, at):  # the points are the argument at ``at``
        def call(*args, **kwargs):
            if in_pair:
                seen[key].append([r.tobytes() for r in args[at]])
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(mdmvt, "fuzzy_pair", pair_spy)
    monkeypatch.setattr(ekeland, "phi_supergradients", spy("phi", real_sg, 0))
    monkeypatch.setattr(ekeland, "f_values", spy("f", real_f, 1))
    monkeypatch.setattr(ekeland, "f_subgrads", spy("subgrad", real_sub, 1))
    with pytest.raises(CertificateSearchError):
        run(ps)
    assert seen.pop("f") == []
    for key, calls in seen.items():
        assert len(calls) == 1, key
        assert calls[0] and len(calls[0]) == len(set(calls[0])), key
    # u and every y are candidate x; u is also the y of the zero offset
    assert len(seen["subgrad"][0]) == len(seen["phi"][0])


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
