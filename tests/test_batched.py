"""The verifier evaluates f and hull membership on whole grids.

Counting spies around the per-point layers show that the dense checks no
longer project or evaluate point by point.
"""

import sys

import numpy as np

import mdmvi.functions as functions
import mdmvi.geometry as geometry
from mdmvi import ProblemSpec, verify_certificate
from mdmvi.geometry import sample_set
from mdmvi.check import grid_inf


def _count_everywhere(monkeypatch, home, name):
    """Replace ``home.name`` in every loaded mdmvi module that binds it
    with a spy; returns the list the spy appends each call's point to."""
    original = getattr(home, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mdmvi" or mod_name.startswith("mdmvi."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)
    return calls


def test_dense_verify_of_a_restricted_function_projects_little(monkeypatch, suite_results):
    entry = suite_results["restricted_quadratic_1d"]
    calls = _count_everywhere(monkeypatch, geometry, "dist_to_hull")
    valid, _ = verify_certificate(entry["cert"], entry["spec"], resolution=8001)
    assert valid
    assert len(calls) <= 50


def test_hull_grid_of_plane_2d_projects_little(monkeypatch, problems_dir):
    ps = ProblemSpec.from_json_file(problems_dir / "plane_2d.json")
    calls = _count_everywhere(monkeypatch, geometry, "dist_to_hull")
    pts = sample_set(ps.A, ps.B, 0.0, 41)
    assert len(pts) == 41 * 41
    assert len(calls) <= 50


def test_grid_inf_evaluates_f_on_rows(monkeypatch, problems_dir):
    ps = ProblemSpec.from_json_file(problems_dir / "restricted_quadratic_1d.json")
    calls = _count_everywhere(monkeypatch, functions, "f_eval")
    est = grid_inf(ps.f, ps.A, ps.B, ps.delta, 401)
    assert calls == []
    assert np.isfinite(est.value)
