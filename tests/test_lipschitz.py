"""The batched ``mdmvt._lipschitz_estimate`` against the per-point loop it
replaced (``lipschitz_reference.py``)."""

import json
from pathlib import Path

import numpy as np
import pytest

import mdmvi.mdmvt as mdmvt
from mdmvi import (
    Certificate,
    Polytope,
    ProblemSpec,
    l2_norm,
    linear,
    max_affine,
    quadratic,
    restricted,
    sample_set,
    sin_quadratic,
    verify_certificate,
)
from mdmvi.functions import f_values
from mdmvi.mdmvt import _lipschitz_estimate
from mdmvi.oracles import grid_inf

from lipschitz_reference import lipschitz_estimate

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = sorted((ROOT / "src" / "mdmvi" / "problems").glob("*.json"))
STRESS = sorted((ROOT / "benchmarks" / "specs").glob("*.json"))


def _same_bits(f, pts, fvals=None):
    got = _lipschitz_estimate(f, pts, f_values(f, pts) if fvals is None else fvals)
    want = lipschitz_estimate(f, pts, fvals)
    assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("path", PROBLEMS + STRESS, ids=lambda p: p.stem)
def test_same_bits_on_the_pipeline_and_verifier_grids(path):
    ps = ProblemSpec.from_json_dict(json.loads(path.read_text()))
    hull_grid = sample_set(ps.A, ps.B, 0.0, ps.resolution)  # run's
    _same_bits(ps.f, hull_grid, f_values(ps.f, hull_grid))
    ginf_a = grid_inf(ps.f, ps.A, ps.A, 0.0, ps.resolution)  # the verifier's
    _same_bits(ps.f, ginf_a.pts, ginf_a.vals)


def _random_function(rng, dim, A, B):
    M = rng.normal(size=(dim, dim))
    kind = rng.integers(6)
    if kind == 0:
        return linear(rng.normal(size=dim), rng.normal())
    if kind == 1:
        return quadratic(M @ M.T, rng.normal(size=dim))
    if kind == 2:  # centred on a vertex, so some grid point sits at the kink
        return l2_norm(A.vertices[0])
    if kind == 3:
        return max_affine(rng.normal(size=(4, dim)), rng.normal(size=4))
    if kind == 4:
        return sin_quadratic(rng.normal(), rng.normal(size=dim), M @ M.T, rng.normal(size=dim))
    # a domain that cuts the hull, so part of the grid is +inf or on its boundary
    V = np.vstack([A.vertices, B.vertices])
    domain = Polytope(V.mean(axis=0) + 0.6 * (V - V.mean(axis=0)))
    return restricted(quadratic(np.eye(dim), rng.normal(size=dim)), domain)


def _random_cases(dim, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        A = Polytope(rng.normal(size=(int(rng.integers(1, 4)), dim)))
        B = Polytope(rng.normal(size=(int(rng.integers(1, 4)), dim)) + 2.0 * rng.normal(size=dim))
        yield _random_function(rng, dim, A, B), sample_set(A, B, 0.0, 21 if dim < 3 else 9)


def test_same_bits_on_random_1d_hulls():
    for f, pts in _random_cases(1, 60, 101):
        _same_bits(f, pts)


@pytest.mark.parametrize("dim", [2, 3])
def test_within_two_ulps_on_random_hulls(dim, record_property):
    worst = 0.0
    for f, pts in _random_cases(dim, 30, 200 + dim):
        got, want = _lipschitz_estimate(f, pts, f_values(f, pts)), lipschitz_estimate(f, pts)
        worst = max(worst, abs(got - want) / np.spacing(want))
    record_property("worst_ulps", worst)
    print(f"{dim}-D: worst difference {worst:g} ulp")
    assert worst <= 2.0


def test_verifier_reads_one_subgradient_set(monkeypatch):
    """One verify on plane_2d asks for f's representatives at one point,
    xi; the Lipschitz estimate takes all of its grid's in one call."""
    ps = ProblemSpec.from_json_file(ROOT / "src" / "mdmvi" / "problems" / "plane_2d.json")
    cert = Certificate.from_json_file(ROOT / "benchmarks" / "fixtures" / "plane_2d.cert.json")
    calls = []
    real = mdmvt.f_subgrad

    def spy(f, x):
        calls.append(np.asarray(x, dtype=float).copy())
        return real(f, x)

    monkeypatch.setattr(mdmvt, "f_subgrad", spy)
    valid, _ = verify_certificate(cert, ps, resolution=301)
    assert valid
    assert len(calls) == 1 and np.array_equal(calls[0], cert.xi)
