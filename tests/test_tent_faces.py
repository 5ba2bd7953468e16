"""The tent reads its pieces from the one face table it shares with the
smoothing (``tent.Faces``), and locates rows as the table of pieces it
replaced does (``tests/tent_reference.py``): the same holding simplex, or
off the hull on both sides, and the same value, weights and slope to
rounding.  Rows are the hull grid, random rows around it, chords between
vertices, and rows on a facet of a simplex moved off it, or off the affine
hull, by 1e-10 and 1e-8 of the coordinate scale, inside and outside the
1e-9 tolerance."""

from pathlib import Path

import numpy as np
import pytest
from tent_reference import reference_facets, reference_locate

import mdmvi
from mdmvi.check import ProblemSpec
from mdmvi.geometry import Hull, affine_frame
from mdmvi.mdmvt import choose_params
from mdmvi.supconv import SupConvSpec
from mdmvi.tent import TentSpec, _locate, psi_eval, psi_on_grid

ROOT = Path(__file__).resolve().parents[1]
SPECS = (
    sorted((Path(mdmvi.__file__).parent / "problems").glob("*.json"))
    + sorted((ROOT / "tests" / "specs").glob("*.json"))
    + sorted((ROOT / "benchmarks" / "specs").glob("*.json"))
)
MOVES = (1e-10, 1e-8)  # of the coordinate scale: inside and outside the 1e-9 tolerance


def _smoothing(path: Path) -> tuple[ProblemSpec, SupConvSpec]:
    ps = ProblemSpec.from_json_file(path)
    params = choose_params(ps)
    return ps, SupConvSpec(TentSpec(ps.A, ps.B, params.r, params.s1), params.K)


def _rows(ps: ProblemSpec, t: TentSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    V, n = t.V, t.dim
    grid = Hull(ps.A, ps.B).grid(ps.delta, min(ps.resolution, 41))
    spread = rng.uniform(V.min(axis=0) - 3 * ps.delta, V.max(axis=0) + 3 * ps.delta, (300, n))
    F = reference_facets(V, t.levels)
    P, k1 = F.verts.shape
    # a point on the facet of piece j opposite its vertex i, and the unit
    # direction out of the piece there, against the gradient of weight i
    j, i, m = rng.integers(P, size=300), rng.integers(k1, size=300), np.arange(300)
    w = rng.dirichlet(np.ones(k1), size=300)
    w[m, i] = 0.0
    on_facet = np.einsum("mi,min->mn", w / w.sum(axis=1, keepdims=True), V[F.verts[j]])
    out = -F.lin[:, : P * k1].T.reshape(P, k1, n)[j, i]
    moves = [out / np.linalg.norm(out, axis=1, keepdims=True)]
    _, vt, k = affine_frame(V)
    if k < n:  # and off the affine hull, along a random normal of it
        normal = rng.normal(size=(300, n - k)) @ vt[k:]
        moves.append(normal / np.linalg.norm(normal, axis=1, keepdims=True))
    scale = 1.0 + np.abs(V).max()
    moved = [on_facet + s * scale * d for s in MOVES for d in moves]
    a, b, u = rng.integers(len(V), size=1000), rng.integers(len(V), size=1000), rng.random(1000)
    chords = u[:, None] * V[a] + (1 - u[:, None]) * V[b]  # through the simplices' interiors
    return np.vstack([grid, spread, on_facet, chords] + moved)


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_the_tent_locates_rows_as_its_table_of_pieces_did(path):
    ps, sc = _smoothing(path)
    t = sc.tent
    X = _rows(ps, t, seed=len(path.name))
    F = reference_facets(t.V, t.levels)
    piece, w_ref, want = reference_locate(F, X)
    face, w, got = _locate(t, X)
    # the same holding simplex, by vertex set, or off the hull on both sides
    assert np.array_equal(face < 0, piece < 0)
    held = face >= 0
    assert np.array_equal(t.faces.verts[face[held]], F.verts[piece[held]])
    assert np.array_equal(psi_on_grid(t, X), got)
    assert np.isneginf(got[~held]).all()
    assert np.abs(got[held] - want[held]).max() <= 1e-13 * (1.0 + np.abs(t.levels).max())
    # the table's weights come from the normal equations of each simplex's
    # edges, the reference's from the inverse of its matrix: on the thin
    # simplices of sphere8_3d they part by up to 2.8e-12
    assert np.abs(w.T[held] - w_ref[held]).max() <= 1e-11
    for x, j, wj in zip(X[held][::5], piece[held][::5], w_ref[held][::5]):
        v = psi_eval(x, t)
        coords = np.zeros(len(t.V))
        coords[F.verts[j]] = wj
        assert np.abs(v.coords.weights() - coords).max() <= 1e-11
        assert np.array_equal(v.slope, F.slope[j])


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_the_smoothing_reads_the_tents_own_face_table(path):
    _, sc = _smoothing(path)
    mine, tents = sc.faces, sc.tent.faces
    for name in mine._fields:
        if name in ("root", "slope"):  # the two columns that depend on K
            continue
        assert getattr(mine, name) is getattr(tents, name), name
    assert tents.root is None and mine.root.shape == tents.level.shape
    assert mine.slope.shape == tents.slope.shape
