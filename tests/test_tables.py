"""The pipeline builds each hull once, evaluates each grid once and
shares the tables.

These tests run ``canonical_1d`` (at a reduced resolution where the grids
are counted) and ``pair_3d`` with counting spies around the stages that
build the hulls and read the C grid and the hull grid, and the verifier on
the benchmark fixtures with a spy on the rows of f it reads.
"""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mdmvi.ekeland as ekeland
import mdmvi.geometry as geometry
import mdmvi.mdmvt as mdmvt
import mdmvi.supconv as supconv
from mdmvi import Certificate, ProblemSpec, linear, run, verify_certificate
from mdmvi.geometry import sample_set
from mdmvi.oracles import grid_inf

RES = 41
ROOT = Path(__file__).resolve().parents[1]


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
    est = mdmvt._estimate_inf(linear([1.0]), geometry.Hull(seg_a, seg_a), 0.0, 41, name="inf_A")
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
    real_grid = geometry.Hull.grid

    def grid_spy(hull, delta, resolution):
        samples.append((hull.A, hull.B, delta))
        return real_grid(hull, delta, resolution)

    monkeypatch.setattr(geometry.Hull, "grid", grid_spy)

    f1_points = Counter()
    real_restrict = mdmvt._restrict_to

    def restrict_spy(*args):
        f1 = real_restrict(*args)

        def rows(X):
            f1_points.update(x.tobytes() for x in X)
            return f1.rows(X)

        return dataclasses.replace(f1, rows=rows)

    monkeypatch.setattr(mdmvt, "_restrict_to", restrict_spy)

    cert = run(ps)
    assert len(estimates) == 4
    assert samples.count((ps.A, ps.B, ps.delta)) == 1
    assert [f1_points[z.tobytes()] for z in c_grid] == [1] * len(c_grid)
    assert not hasattr(ekeland, "sample_set")  # the search samples no grid of its own
    assert verify_certificate(cert, ps)[0]


@pytest.mark.parametrize(
    "path", ["src/mdmvi/problems/canonical_1d.json", "benchmarks/specs/pair_3d.json"]
)
def test_run_builds_one_hull_per_vertex_set(monkeypatch, path):
    ps = ProblemSpec.from_json_file(ROOT / path)
    built = []
    real_init = geometry.Hull.__post_init__

    def init_spy(hull):
        built.append((hull.A, hull.B))
        real_init(hull)

    monkeypatch.setattr(geometry.Hull, "__post_init__", init_spy)
    cert = run(ps)
    assert len(built) == 3
    assert set(built) == {(ps.A, ps.B), (ps.A, ps.A), (ps.B, ps.B)}
    assert verify_certificate(cert, ps)[0]
    assert len(built) == 3  # the verifier builds none


@pytest.mark.parametrize("name, resolution", [("plane_2d", 301), ("restricted_quadratic_1d", 8001)])
def test_verifier_reads_f_once_per_oracle_row(problems_dir, name, resolution):
    ps = ProblemSpec.from_json_file(problems_dir / f"{name}.json")
    cert = Certificate.from_json_file(ROOT / "benchmarks" / "fixtures" / f"{name}.cert.json")
    rows = []

    def rows_spy(X):
        rows.append(len(X))
        return ps.f.rows(X)

    spied = dataclasses.replace(ps, f=dataclasses.replace(ps.f, rows=rows_spy))
    assert verify_certificate(cert, spied, resolution)[0]
    ginf_a = grid_inf(ps.f, ps.A, ps.A, 0.0, resolution)
    ginf_hull = grid_inf(ps.f, ps.A, ps.B, 0.0, resolution)
    assert sum(rows) == len(ginf_a.pts) + len(ginf_hull.pts) + 1  # and one row at xi
