"""The rows-last smoothing kernel gives the bits of the rows-first one in
``tests/kernel_reference.py``, and the boundary dual over the tent's faces
those of the one over every vertex subset, on every bundled problem, the
stress and benchmark specs, and the corner cases of each; the hull screen
keeps the decisions it made on its retired table, and its projection
finds the nearest hull point; and neither the smoothing nor the hull keeps
anything per object beyond the object itself."""

import gc
import hashlib
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from kernel_reference import reference_kernel, reference_least_supergradient

import mdmvi
from mdmvi import supconv
from mdmvi.check import ProblemSpec
from mdmvi.geometry import _SCREEN_MARGIN, Hull, Polytope, box_axes, dist_to_hull
from mdmvi.mdmvt import choose_params
from mdmvi.supconv import (
    _GAP_RAISE,
    SupConvSpec,
    _kernel,
    _kernel_rows,
    _least_supergradient,
    phi_rows,
)
from mdmvi.tent import _CHUNK, TentSpec

ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted((Path(mdmvi.__file__).parent / "problems").glob("*.json")) + [
    ROOT / "tests" / "specs" / "circle8_2d.json",
    ROOT / "tests" / "specs" / "sphere8_3d.json",
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
    # an edge on the line y = -0.0, whose signed zeros reach the screen's weighted sums
    "signed_zero_edge": ([[0.0, -0.0], [1.0, -0.0]], [[0.5, 1.0]]),
}


# sha256 of ``within``'s decisions on the rows of ``_within_digest``, as
# the screen made them on its retired table of per-size pseudo-inverses
WITHIN_DIGESTS = {
    "circle_16": "451dd30c1d46474c6336c13ee4e9766c192729c38529280165b12dc9d6ee6346",
    "interval_1d": "49986cd7a4d4e847d045fc40d92168e1d6593665a85fc8c4b4eea6dbad20255b",
    "planar_segments_3d": "cc7c3be119cceacf4aa01f326584dcf7c4d56e2eb7dd2e4b2bf8256ea68fa590",
    "signed_zero_edge": "a9e1030df02531301bfa5db0c18f3a2e8c10ea903bb95e65fd6e3d305318edc4",
    "skew_segments_3d": "f3e606f5b380887693d43c45088509b32bb1aec39e4eb3ae9439b19ff0bf0ecc",
    "canonical_1d": "1f824f252f11c4aa99a8628d1b37d174f54bcaadb1787ba78753452ad8e80515",
    "l2_norm_1d": "b386a43f6762520afa3151ffa1d4b247f8f6f36984b7c1d385759b3f5fc17ad4",
    "max_affine_1d": "4d591827c8aa8282425190189de712e2086de9e949421407e433a36070c4f147",
    "plane_2d": "2d5bfd771f474c046a431312b64cdf0d92b568cf6feb04c9b7b238784cdc1819",
    "quadratic_1d": "a719f3075b0f12cebada5760eb83d34575e3beaf1abb01adf1ed836cf5c8d0dc",
    "restricted_quadratic_1d": "11c4c03254801490d2d3fd4ae2a8ba02ecc576d24c6403cd5a28d18b2d9025ef",
    "sin_quadratic_1d": "c230ebe572784b4e1bb8671605c81eaffe8e0b8f4f7177f6004075acdbf35063",
    "circle8_2d": "195a6dcf1564019d3bc8e7d89b0d609682da6c7901f6ca68c82a67c06d3d0a69",
    "sphere8_3d": "0e2856ef2e661403ccbfe4f5e8c9f2bfd7dbcfd7dbbf04a2e950ec012f63f9e4",
    "multivertex_2d": "906af2d9a29f6482c76b8c1ce8828a4c7fc9f558d6183273dbd527073b8c158d",
    "pair_3d": "c8db4af4cb261ba8500309cdc94293c947fe9513002a8c186505e80d52c1d21f",
}


def _every(rows: np.ndarray, count: int) -> np.ndarray:
    """At most about ``count`` of the rows, evenly strided, first included."""
    return rows[:: max(1, len(rows) // count)]


def _hull_cases(name: str) -> tuple[list, float, int, np.ndarray]:
    """The hulls of a case, its delta and resolution, and its rows: for a
    spec, Hull(A,B), Hull(A,A) and Hull(B,B) on the rows of [A,B]'s grid;
    for a hull of ``HULLS``, it alone at delta 0.5 and resolution 21."""
    if name in HULLS:
        hulls, delta, resolution = [Hull(*map(Polytope, HULLS[name]))], 0.5, 21
        return hulls, delta, resolution, _rows(hulls[0], delta, resolution, seed=len(name))
    path = next(p for p in SPECS if p.stem == name)
    ps = ProblemSpec.from_json_file(path)
    hulls = [Hull(ps.A, ps.B), Hull(ps.A, ps.A), Hull(ps.B, ps.B)]
    return hulls, ps.delta, ps.resolution, _rows(hulls[0], ps.delta, ps.resolution, len(path.name))


def _within_digest(name: str) -> str:
    """sha256 of each hull's decisions at the radii 0, 1e-9, delta and
    delta plus the step of [A,B]'s grid, in turn."""
    hulls, delta, resolution, X = _hull_cases(name)
    V = np.vstack([hulls[0].A.vertices, hulls[0].B.vertices])
    step = box_axes(V.min(axis=0) - delta, V.max(axis=0) + delta, resolution)[1]
    digest = hashlib.sha256()
    for hull in hulls:
        for radius in (0.0, 1e-9, delta, delta + step):
            digest.update(hull.within(X, radius).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(HULLS))
def test_nearest_has_the_reference_bits(name):
    """The screen, projecting through the one face table, makes every
    decision it made through its retired table, on the corner cases."""
    assert _within_digest(name) == WITHIN_DIGESTS[name]


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_nearest_has_the_reference_bits_on_the_specs(path):
    """As above, for [A,B], A and B of every spec."""
    assert _within_digest(path.stem) == WITHIN_DIGESTS[path.stem]


@pytest.mark.parametrize("name", sorted(HULLS) + [p.stem for p in SPECS])
def test_nearest_is_the_hull_point_at_the_distance(name):
    """For each row the screen projects, one outside a facet plane (about
    400 of them, evenly strided), ``_nearest`` gives a point of the hull
    at the row's distance from it, both within the screen's margin."""
    hulls, _, _, X = _hull_cases(name)
    for hull in hulls:
        Y = hull.center + ((X - hull.center) @ hull.basis.T) @ hull.basis
        out = _every(X[(hull.normals @ Y.T > hull.offsets[:, None]).any(axis=0)], 400)
        margin = _SCREEN_MARGIN * (hull.scale + np.abs(out).max(axis=1))
        for x, y, tol in zip(out, hull._nearest(out), margin):
            assert dist_to_hull(y, hull.A, hull.B).d <= tol
            assert abs(np.linalg.norm(x - y) - dist_to_hull(x, hull.A, hull.B).d) <= tol


def _dual_cases(sc: SupConvSpec, X: np.ndarray):
    """(x, value) at each row x of X whose smoothing is not refused, at
    value = phi_K(x) and phi_K(x) -+ 1e-3."""
    for x, phi in zip(X, phi_rows(sc, X)):
        if np.isfinite(phi):
            for value in (phi, phi - 1e-3, phi + 1e-3):
                yield x, value


def _same_duals(sc: SupConvSpec, X: np.ndarray):
    for x, value in _dual_cases(sc, X):
        got = _least_supergradient(sc, x, value)
        assert got.tobytes() == reference_least_supergradient(sc, x, value).tobytes(), (x, value)


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_least_supergradient_has_the_reference_bits(path):
    """The faces of the tent's simplices hold the active set of the
    least-norm dual: its bits are those of trying every vertex subset, on
    the hull and C grids at resolution 11 (about 100 rows of each, evenly
    strided, since a 16-vertex 3-D reference call tries 696 subsets) and
    on 200 rows around the vertices, at the smoothing's value and 1e-3
    either side of it."""
    ps = ProblemSpec.from_json_file(path)
    params = choose_params(ps)
    sc = SupConvSpec(TentSpec(ps.A, ps.B, params.r, params.s1), params.K)
    hull = Hull(ps.A, ps.B)
    rng = np.random.default_rng(len(path.name))
    V = sc.tent.V
    around = V[rng.integers(len(V), size=200)] + rng.normal(scale=0.1, size=(200, V.shape[1]))
    grids = [_every(hull.grid(delta, 11), 100) for delta in (0.0, ps.delta)]
    _same_duals(sc, np.vstack(grids + [around]))


def _collinear(levels_a: int) -> tuple[list, list]:
    """Three collinear points in 3-D, the first ``levels_a`` of them A's."""
    line = [[0.0, 0.0, 0.0], [0.5, 0.25, 0.125], [1.0, 0.5, 0.25]]
    return line[:levels_a], line[levels_a:]


FLAT_HULLS = {
    "planar_segments_3d": HULLS["planar_segments_3d"],
    "skew_segments_3d": HULLS["skew_segments_3d"],
    "collinear_3d": _collinear(1),
}
# the middle point is A's, at level 0 between levels 0 and 1: its lifted
# point lies below the tent, on no face
BELOW = _collinear(2)


def _flat_rows(A: Polytope, B: Polytope, sc: SupConvSpec, seed: int) -> np.ndarray:
    """The hull's grid inflated by 0.5 and 200 rows around the vertices."""
    rng = np.random.default_rng(seed)
    V = sc.tent.V
    around = V[rng.integers(len(V), size=200)] + rng.normal(scale=0.1, size=(200, V.shape[1]))
    return np.vstack([Hull(A, B).grid(0.5, 11), around])


@pytest.mark.parametrize("name", sorted(FLAT_HULLS))
def test_least_supergradient_has_the_reference_bits_on_flat_hulls(name):
    """Where the tent's simplices have fewer than n + 1 vertices, the
    subsets of n vertices are not faces: the bits hold there too, on the
    hull's grid inflated by 0.5 and on rows around the vertices."""
    A, B = map(Polytope, FLAT_HULLS[name])
    sc = SupConvSpec(TentSpec(A, B, 0.0, 1.0), 3.0)
    _same_duals(sc, _flat_rows(A, B, sc, len(name)))


def test_least_supergradient_is_the_reference_to_rounding_below_the_tent():
    """Where a vertex lies below the tent, the two duals agree to within
    an ulp of the norm of p, and differ only at that vertex: there its row
    v - x is 0, so the subsets that hold it, which are no faces, give the
    same least-norm p rounded otherwise, and one of them rounds to a
    smaller norm."""
    A, B = map(Polytope, BELOW)
    sc = SupConvSpec(TentSpec(A, B, 0.0, 1.0), 3.0)
    differ = []
    for x, value in _dual_cases(sc, _flat_rows(A, B, sc, len("collinear_below_3d"))):
        got, want = _least_supergradient(sc, x, value), reference_least_supergradient(sc, x, value)
        assert np.abs(got - want).max() <= 2e-16 * np.linalg.norm(want)
        if got.tobytes() != want.tobytes():
            differ.append(x)
    assert differ and (np.array(differ) == sc.tent.V[1]).all()


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
