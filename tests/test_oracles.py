import json
from pathlib import Path

import numpy as np
import pytest

from mdmvi import (
    Certificate,
    Polytope,
    ProblemSpec,
    SupConvSpec,
    TentSpec,
    linear,
    l2_norm,
    quadratic,
    verify_certificate,
)
from mdmvi import check
from mdmvi.check import _grid_axes, _max_margin, _screen, _sphere_net, _support, grid_inf
from mdmvi.cli import run_command
from mdmvi.oracles import _hull_support_gap, phi_brute, psi_brute

from grid_inf_reference import box_grid, reference_grid_inf

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGridInf:
    def test_linear_over_inflated_segment(self, seg_a, seg_b):
        est = grid_inf(linear([1.0]), seg_a, seg_b, 0.5, 201)
        assert est.value == pytest.approx(-0.5, abs=1e-9)
        assert est.argmin[0] == pytest.approx(-0.5, abs=1e-9)

    def test_norm_over_hull(self, seg_a, seg_b):
        est = grid_inf(l2_norm([0.0]), seg_a, seg_b, 0.0, 201)
        assert est.value == pytest.approx(0.0, abs=1e-9)

    def test_boundary_minimum_of_quadratic(self, seg_b):
        # f = (x - 0.3)^2 / 2 over [0.5, 1.5] bottoms out at the left edge
        f = quadratic([[1.0]], [-0.3])
        est = grid_inf(f, seg_b, seg_b, 0.5, 201)
        shift = 0.5 * 0.3**2  # catalog quadratic has no constant term
        assert est.value + shift == pytest.approx(0.02, abs=1e-6)
        assert est.argmin[0] == pytest.approx(0.5, abs=1e-9)

    def test_meaningful_step_reported(self, seg_a, seg_b):
        est = grid_inf(linear([1.0]), seg_a, seg_b, 0.5, 101)
        assert est.step == pytest.approx(2.0 / 100, abs=1e-12)

    def test_all_infinite_errors(self, seg_a, seg_b):
        from mdmvi import restricted

        f = restricted(linear([1.0]), Polytope([[7.0], [8.0]]))
        with pytest.raises(ValueError):
            grid_inf(f, seg_a, seg_b, 0.1, 21)

    def test_rejects_small_resolution(self, seg_a, seg_b):
        with pytest.raises(ValueError):
            grid_inf(linear([1.0]), seg_a, seg_b, 0.0, 1)


class TestPsiBrute:
    def test_interpolation(self, unit_tent):
        v = psi_brute([0.25], unit_tent, 10_000)
        assert v == pytest.approx(0.25, abs=1e-4)

    def test_outside_hull(self, unit_tent):
        assert psi_brute([2.0], unit_tent, 1000) == -np.inf

    def test_reversed_levels(self, seg_a, seg_b):
        t = TentSpec(seg_a, seg_b, 2.0, 1.0)
        assert psi_brute([0.5], t, 1000) == pytest.approx(1.5, abs=2e-3)

    def test_error_shrinks_with_resolution(self, unit_tent):
        from mdmvi.tent import psi_value

        # sample at points incommensurate with every grid so quantization
        # error is actually exercised
        xs = [k / 7.3 for k in range(1, 7)]
        errs = []
        for res in (100, 1000, 10_000):
            worst = max(
                abs(psi_brute([x], unit_tent, res) - psi_value([x], unit_tent))
                for x in xs
            )
            errs.append(worst)
        assert errs[2] < errs[0]
        assert errs[2] <= 1e-3
        # roughly linear decay in the grid step
        assert errs[2] <= errs[0] / 10


class TestPhiBrute:
    def test_decay_outside(self, unit_tent):
        sc = SupConvSpec(unit_tent, 1.0)
        assert phi_brute([2.0], sc, 1000) == pytest.approx(0.0, abs=2e-3)

    def test_huge_K_collapses_to_tent(self, unit_tent):
        sc = SupConvSpec(unit_tent, 1e6)
        x = [0.4]
        assert phi_brute(x, sc, 2000) == pytest.approx(
            psi_brute(x, unit_tent, 2000), abs=1e-2
        )

    def test_vertex_keeps_level(self, unit_tent):
        sc = SupConvSpec(unit_tent, 3.0)
        assert phi_brute([1.0], sc, 1000) >= unit_tent.s - 1e-3


@pytest.mark.parametrize(
    "a, b, resolution, count",
    [
        ([[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [2.0, 1.0]], 301, 512),
        ([[0.0, 0.0, 0.0]], [[1.0, 0.5, 0.0], [0.2, 0.3, 1.0]], 21, 2048),
    ],
)
def test_chunked_support_gap_equals_the_one_shot_expression(a, b, resolution, count):
    A, B = Polytope(a), Polytope(b)
    V = np.vstack([A.vertices, B.vertices])
    pts = box_grid(V.min(axis=0) - 0.5, V.max(axis=0) + 0.5, resolution)
    dirs = _sphere_net(A.dim, count)
    support = np.maximum(np.max(A.vertices @ dirs.T, axis=0), np.max(B.vertices @ dirs.T, axis=0))
    one_shot = np.maximum(np.max(pts @ dirs.T - support[None, :], axis=1), 0.0)
    assert len(pts) > 4096
    assert np.array_equal(_hull_support_gap(pts, A, B, dirs), one_shot)


def test_a_lone_row_gets_the_bits_it_gets_in_a_batch():
    rng = np.random.default_rng(3)
    for n, count in ((1, 2), (2, 512), (3, 2048)):
        dirs = _sphere_net(n, count)
        pts = rng.normal(size=(50, n)) * 30.0
        support = rng.normal(size=count)
        batch = _max_margin(pts, support, dirs)
        alone = np.array([_max_margin(pts[i : i + 1], support, dirs)[0] for i in range(len(pts))])
        assert np.array_equal(alone, batch)


# --- the coarse-to-fine screen keeps exactly the full grid's points -------


def _full_grid(A, B, delta, resolution):
    """The screen's inputs as grid_inf builds them, with the full grid."""
    V = np.vstack([A.vertices, B.vertices])
    lo, hi = V.min(axis=0) - delta, V.max(axis=0) + delta
    spans = hi - lo
    step = float(np.max(spans / (resolution - 1))) if np.any(spans > 1e-12) else 0.0
    dirs = _sphere_net(A.dim, 512 if A.dim == 2 else 2048)
    axes = _grid_axes(lo, hi, resolution)
    return axes, box_grid(lo, hi, resolution), dirs, delta + step + 1e-12


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_as_full_grid(f, A, B, delta, resolution):
    axes, pts, dirs, thr = _full_grid(A, B, delta, resolution)
    mask = _screen(axes, _support(A, B, dirs), dirs, thr)
    assert mask.shape == tuple(len(a) for a in axes)
    assert np.array_equal(mask.ravel(), _hull_support_gap(pts, A, B, dirs) <= thr)
    got = grid_inf(f, A, B, delta, resolution)
    want = reference_grid_inf(f, A, B, delta, resolution)
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.argmin) == _bits(want.argmin)
    assert _bits(got.step) == _bits(want.step)
    assert _bits(got.pts) == _bits(want.pts) and got.pts.shape == want.pts.shape
    assert _bits(got.vals) == _bits(want.vals)


def _bundled():
    return sorted((ROOT / "src" / "mdmvi" / "problems").glob("*.json"))


@pytest.mark.parametrize("path", _bundled(), ids=lambda p: p.stem)
@pytest.mark.parametrize("pair", ["AA", "AB"])
def test_screen_on_bundled_problems(path, pair):
    ps = ProblemSpec.from_json_file(path)
    B = ps.A if pair == "AA" else ps.B
    assert_same_as_full_grid(ps.f, ps.A, B, 0.0, ps.resolution)


@pytest.mark.parametrize("resolution", [2, 3, 300, 301])
def test_screen_on_plane_2d(problems_dir, resolution):
    ps = ProblemSpec.from_json_file(problems_dir / "plane_2d.json")
    for B in (ps.A, ps.B):
        assert_same_as_full_grid(ps.f, ps.A, B, 0.0, resolution)
    assert_same_as_full_grid(ps.f, ps.A, ps.B, ps.delta, resolution)


def test_screen_on_rotated_plane_2d(problems_dir):
    ps = ProblemSpec.from_json_file(problems_dir / "plane_2d.json")
    c, s = np.cos(0.3), np.sin(0.3)
    R = np.array([[c, -s], [s, c]])
    A, B = Polytope(ps.A.vertices @ R.T), Polytope(ps.B.vertices @ R.T)
    for resolution in (41, 301):
        assert_same_as_full_grid(ps.f, A, B, 0.0, resolution)
        assert_same_as_full_grid(ps.f, A, A, 0.0, resolution)
        assert_same_as_full_grid(ps.f, A, B, ps.delta, resolution)


@pytest.mark.parametrize("name", ["multivertex_2d", "pair_3d"])
def test_screen_on_stress_specs(name):
    ps = ProblemSpec.from_json_file(ROOT / "benchmarks" / "specs" / f"{name}.json")
    for B, delta in ((ps.A, 0.0), (ps.B, 0.0), (ps.B, ps.delta)):
        assert_same_as_full_grid(ps.f, ps.A, B, delta, ps.resolution)
    assert_same_as_full_grid(ps.f, ps.A, ps.B, 0.0, 21)


@pytest.mark.parametrize("dim, resolutions", [(1, (2, 9, 400)), (2, (2, 17, 64)), (3, (2, 9, 21))])
def test_screen_on_random_hulls(dim, resolutions):
    rng = np.random.default_rng(20 + dim)
    for trial in range(6):
        A = rng.normal(size=(int(rng.integers(1, 5)), dim))
        B = rng.normal(size=(int(rng.integers(1, 5)), dim)) + rng.normal(size=dim)
        if dim > 1 and trial % 2:
            flat = int(rng.integers(dim))  # a degenerate axis: all vertices share it
            A[:, flat] = B[:, flat] = 0.25
        f = linear(rng.normal(size=dim))
        for delta in (0.0, float(rng.uniform(0.05, 0.6))):
            for resolution in resolutions:
                assert_same_as_full_grid(f, Polytope(A), Polytope(B), delta, resolution)


def test_screen_decides_gaps_next_to_the_threshold_exactly():
    # the rectangle [0, 2] x [0, 1] on a grid reaching past it: whole rows
    # and columns of points share one gap, so thresholds at, and within
    # 1e-13 of, a gap value put many points on either side of the cut
    A, B = Polytope([[0.0, 0.0], [0.0, 1.0]]), Polytope([[2.0, 0.0], [2.0, 1.0]])
    axes = _grid_axes(np.array([-0.7, -0.45]), np.array([2.6, 1.35]), 67)
    pts = box_grid(np.array([-0.7, -0.45]), np.array([2.6, 1.35]), 67)
    dirs = _sphere_net(2, 512)
    support = _support(A, B, dirs)
    gaps = _hull_support_gap(pts, A, B, dirs)
    levels, counts = np.unique(gaps[(gaps > 0.05) & (gaps < 0.6)], return_counts=True)
    levels = levels[counts >= 3]
    assert len(levels) >= 10
    for level in levels:
        below, above = np.nextafter(level, 0), np.nextafter(level, 1)
        for thr in (level, below, above, level - 1e-13, level + 1e-13):
            assert np.sum(np.abs(gaps - thr) < 1.5e-13) >= 3
            mask = _screen(axes, support, dirs, thr)
            assert np.array_equal(mask.ravel(), gaps <= thr)


def test_screen_scores_few_rows_on_plane_2d(monkeypatch, problems_dir):
    # the full grid scores 301^2 = 90,601 rows; the screen settles the
    # interior of the rectangle in a few boxes
    ps = ProblemSpec.from_json_file(problems_dir / "plane_2d.json")
    rows = []
    real = check._max_margin

    def counting(pts, support, dirs):
        rows.append(len(pts))
        return real(pts, support, dirs)

    monkeypatch.setattr(check, "_max_margin", counting)
    grid_inf(ps.f, ps.A, ps.B, 0.0, 301)
    assert 0 < sum(rows) < 5000


# --- the verifier's reports, byte for byte -----------------------------


@pytest.mark.parametrize(
    "name, resolution", [("plane_2d", 301), ("restricted_quadratic_1d", 8001)]
)
def test_dense_verify_reproduces_the_committed_report(problems_dir, capsys, name, resolution):
    # golden files: the reports and the ``mdmvi verify`` output of the
    # full-grid verifier on the committed fixtures
    spec = problems_dir / f"{name}.json"
    fixture = ROOT / "benchmarks" / "fixtures" / f"{name}.cert.json"
    valid, report = verify_certificate(
        Certificate.from_json_file(fixture),
        ProblemSpec.from_json_file(spec),
        resolution=resolution,
    )
    assert valid
    golden = GOLDEN / f"verify_{name}_r{resolution}"
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    assert text == golden.with_suffix(".json").read_text()
    capsys.readouterr()
    assert run_command(["verify", str(fixture), str(spec), "--resolution", str(resolution)]) == 0
    assert capsys.readouterr().out == golden.with_suffix(".txt").read_text()
