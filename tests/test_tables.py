"""The pipeline evaluates each grid once and shares the tables.

These tests run ``canonical_1d`` at a reduced resolution with counting
spies around the stages that read the C grid and the hull grid.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import mdmvi.ekeland as ekeland
import mdmvi.geometry as geometry
import mdmvi.mdmvt as mdmvt
import mdmvi.supconv as supconv
from mdmvi import ProblemSpec, linear, run, verify_certificate
from mdmvi.geometry import sample_set

RES = 41


@pytest.fixture
def small_spec(problems_dir):
    data = ProblemSpec.from_json_file(problems_dir / "canonical_1d.json").to_json_dict()
    return ProblemSpec.from_json_dict(dict(data, resolution=RES))


def _patch_everywhere(monkeypatch, home, name, wrap):
    """Replace ``home.name`` in every mdmvi module that binds it."""
    original = getattr(home, name)
    spy = wrap(original)
    for mod in (geometry, supconv, ekeland, mdmvt):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)


def test_one_vertex_estimate_makes_no_projection(monkeypatch, seg_a):
    calls = []

    def counting(original):
        def spy(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        return spy

    _patch_everywhere(monkeypatch, geometry, "dist_to_hull", counting)
    est = mdmvt._estimate_inf(linear([1.0]), seg_a, seg_a, 0.0, 41, name="inf_A")
    assert calls == []
    assert est.value == 0.0 and est.step == 0.0
    assert np.array_equal(est.argmin, [0.0])


def test_run_evaluates_each_c_grid_point_once(monkeypatch, small_spec):
    ps = small_spec
    c_grid = sample_set(ps.A, ps.B, ps.delta, ps.resolution)

    estimates = []
    real_estimate = mdmvt._estimate_inf

    def estimate_spy(*args, **kwargs):
        estimates.append(args[1:4])
        return real_estimate(*args, **kwargs)

    monkeypatch.setattr(mdmvt, "_estimate_inf", estimate_spy)

    samples = []

    def sampling(original):
        def spy(A, B, delta, resolution):
            samples.append((A, B, delta))
            return original(A, B, delta, resolution)

        return spy

    _patch_everywhere(monkeypatch, geometry, "sample_set", sampling)

    f1_points = Counter()
    real_restrict = mdmvt.restrict_f

    def restrict_spy(*args):
        f1 = real_restrict(*args)

        def rows(X):
            f1_points.update(x.tobytes() for x in X)
            return f1.rows(X)

        return dataclasses.replace(f1, rows=rows)

    monkeypatch.setattr(mdmvt, "restrict_f", restrict_spy)

    cert = run(ps)
    assert len(estimates) == 4
    assert samples.count((ps.A, ps.B, ps.delta)) == 1
    assert [f1_points[z.tobytes()] for z in c_grid] == [1] * len(c_grid)
    assert not hasattr(ekeland, "sample_set")  # the search samples no grid of its own
    assert verify_certificate(cert, ps)[0]

