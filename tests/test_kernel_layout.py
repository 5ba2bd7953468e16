"""The rows-last smoothing kernel and hull-screen projection give the bits
of the rows-first ones in ``tests/kernel_reference.py``, on every bundled
problem, the stress and benchmark specs, and the corner cases of each; and
neither keeps anything per object beyond the object itself."""

import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from kernel_reference import reference_kernel, reference_nearest

import mdmvi
from mdmvi import supconv
from mdmvi.check import ProblemSpec
from mdmvi.geometry import Hull, Polytope
from mdmvi.mdmvt import choose_params
from mdmvi.supconv import _GAP_RAISE, SupConvSpec, _kernel, _kernel_rows
from mdmvi.tent import _CHUNK, TentSpec

ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted((Path(mdmvi.__file__).parent / "problems").glob("*.json")) + [
    ROOT / "tests" / "specs" / "circle8_2d.json",
    ROOT / "benchmarks" / "specs" / "multivertex_2d.json",
    ROOT / "benchmarks" / "specs" / "pair_3d.json",
]


def _same(got, want):
    for name, a, b in zip(want._fields, got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _rows(hull: Hull, delta: float, resolution: int, seed: int) -> np.ndarray:
    """The C grid, the grid moved by small steps, and rows far outside."""
    rng = np.random.default_rng(seed)
    grid = hull.grid(delta, resolution)
    return np.vstack(
        [
            grid,
            grid + rng.normal(scale=1e-7, size=grid.shape),
            rng.uniform(-100.0, 100.0, size=(50, grid.shape[1])),
        ]
    )


def _smoothing(path: Path) -> tuple[SupConvSpec, np.ndarray, Hull]:
    ps = ProblemSpec.from_json_file(path)
    params = choose_params(ps)
    sc = SupConvSpec(TentSpec(ps.A, ps.B, params.r, params.s1), params.K)
    hull = Hull(ps.A, ps.B)
    return sc, _rows(hull, ps.delta, ps.resolution, seed=len(path.name)), hull


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_kernel_has_the_reference_bits(path):
    sc, X, _ = _smoothing(path)
    _same(_kernel(sc, X), reference_kernel(sc, X))


@pytest.mark.parametrize("name", ["multivertex_2d", "pair_3d"])
def test_chunked_kernel_has_the_reference_bits(name):
    """A batch that straddles ``_CHUNK`` row-face entries, in chunks."""
    sc, X, _ = _smoothing(next(p for p in SPECS if p.stem == name))
    X = X[np.arange(2 * (_CHUNK // len(sc.faces.level)) + 7) % len(X)]  # two chunks and more
    want = reference_kernel(sc, X)
    refused = np.where(want.gap > _GAP_RAISE, np.nan, want.value)
    _same(_kernel_rows(sc, X), want._replace(value=refused))


def test_kernel_has_the_reference_bits_where_a_face_is_steeper_than_K(unit_tent):
    sc = SupConvSpec(unit_tent, 0.5)
    assert np.isnan(sc.faces.root).any()
    X = np.linspace(-2.0, 3.0, 101)[:, None]
    _same(_kernel(sc, X), reference_kernel(sc, X))


def test_kernel_has_the_reference_bits_on_the_least_supergradient_branch(monkeypatch):
    A = Polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    B = Polytope([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    sc = SupConvSpec(TentSpec(A, B, 0.0, 2.0), 2.0)
    V = sc.tent.V
    pairs = [(i, j) for i in range(len(V)) for j in range(i)]
    X = np.array([w * V[i] + (1 - w) * V[j] for i, j in pairs for w in (0.0, 0.3)])
    real, hits = supconv._least_supergradient, []

    def spy(sc, x, value):
        hits.append(x)
        return real(sc, x, value)

    monkeypatch.setattr(supconv, "_least_supergradient", spy)
    got = _kernel(sc, X)
    assert hits
    _same(got, reference_kernel(sc, X))


def _circle(m: int, x0: float) -> list:
    ang = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    return np.stack([x0 + 0.3 * np.cos(ang), 0.3 * np.sin(ang)], axis=1).tolist()


HULLS = {
    "interval_1d": ([[0.0]], [[1.0]]),
    "planar_segments_3d": ([[0.0, 0.0, 0.0], [1.0, 0.2, 0.0]], [[0.1, 1.0, 0.0], [0.9, 1.3, 0.0]]),
    "skew_segments_3d": ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 1.0, 0.5], [0.3, 0.8, 1.2]]),
    "circle_16": (_circle(8, 0.0), _circle(8, 2.0)),
    # an edge on the line y = -0.0: the reference's einsum gives its points y = 0.0
    "signed_zero_edge": ([[0.0, -0.0], [1.0, -0.0]], [[0.5, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(HULLS))
def test_nearest_has_the_reference_bits(name):
    A, B = map(Polytope, HULLS[name])
    hull = Hull(A, B)
    X = _rows(hull, 0.5, 21, seed=len(name))
    assert hull.width
    assert hull._nearest(X).tobytes() == reference_nearest(hull, X).tobytes()


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_nearest_has_the_reference_bits_on_the_specs(path):
    _, X, hull = _smoothing(path)
    for h in (hull, Hull(hull.A, hull.A), Hull(hull.B, hull.B)):
        if h.width:  # a one-vertex hull has no boundary to project onto
            assert h._nearest(X).tobytes() == reference_nearest(h, X).tobytes()


def test_no_table_outlives_its_object():
    """Building and using 200 fresh smoothings and hulls, alive at once,
    leaves no memory behind once they are collected: nothing is cached
    beside them, by identity or by reference."""
    ps = ProblemSpec.from_json_file(ROOT / "tests" / "specs" / "circle8_2d.json")
    tent = TentSpec(ps.A, ps.B, 0.0, 1.0)
    rows = np.random.default_rng(3).uniform(-0.5, 2.5, size=(60, 2))
    grid = np.stack(np.meshgrid(np.linspace(-0.5, 2.5, 12), np.linspace(-0.5, 0.5, 5)), axis=-1)
    grid = grid.reshape(-1, 2)

    def use(i):
        sc, hull = SupConvSpec(tent, 3.0 + 1e-3 * i), Hull(ps.A, ps.B)
        supconv.phi_rows(sc, rows)
        hull.within(grid, 0.1)
        return sc, hull

    use(0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = [use(i) for i in range(1, 201)]
        refs = [weakref.ref(obj) for pair in made for obj in pair]
        del made
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not any(ref() for ref in refs)
    assert grown < 1 << 20
