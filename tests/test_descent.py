"""The lockstep compass search of ``ekeland.descend_g`` against the
coordinate-and-golden descent it replaced (``descent_reference``), and bit
for bit against the start-after-start compass search (``compass_reference``).

All read the inputs ``run`` hands ``descend_g``, captured by stopping the
pipeline there.
"""

from pathlib import Path

import numpy as np
import pytest

import mdmvi.ekeland as ekeland
import mdmvi.mdmvt as mdmvt
from mdmvi import ProblemSpec

from compass_reference import reference_compass
from descent_reference import reference_descent
from test_multivertex import MULTIVERTEX_2D

BUNDLED = (
    "canonical_1d",
    "l2_norm_1d",
    "max_affine_1d",
    "plane_2d",
    "quadratic_1d",
    "restricted_quadratic_1d",
    "sin_quadratic_1d",
)

# the spec seed that the hull-nd benchmark workload gives multivertex_2d
# at workload seed 307, where the old descent crept along a valley
VALLEY_SEED = 150510646

PAIR_3D = Path(__file__).resolve().parents[1] / "benchmarks" / "specs" / "pair_3d.json"


class _Stop(Exception):
    pass


def descent_inputs(ps: ProblemSpec):
    """The positional and keyword arguments ``run`` passes to descend_g."""
    got = {}

    def capture(*args, **kwargs):
        got["args"], got["kwargs"] = args, kwargs
        raise _Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdmvt, "descend_g", capture)
        with pytest.raises(_Stop):
            mdmvt.run(ps)
    return got["args"], got["kwargs"]


def _reference(args, kwargs):
    table, f1, sc, delta = args
    return reference_descent(table, f1, sc, delta, kwargs["seed"])


@pytest.mark.parametrize("name", BUNDLED)
def test_reaches_the_reference_value_on_bundled_problems(name, problems_dir):
    args, kwargs = descent_inputs(ProblemSpec.from_json_file(problems_dir / f"{name}.json"))
    _, g_ref = _reference(args, kwargs)
    point = ekeland.descend_g(*args, **kwargs)
    assert point.value <= g_ref + 1e-9 * (1.0 + abs(g_ref))


@pytest.mark.parametrize("seed", [1, VALLEY_SEED])
def test_reaches_the_reference_value_on_multivertex_2d(seed):
    # Both searches end in a sharp valley of g whose descent cone is about
    # a degree wide, where they stop short of its floor: at seed 1 the
    # compass search ends 2.4e-7 above the reference, at the valley seed
    # 8.5e-6 below it.  The bound is the domination check's tolerance.
    ps = ProblemSpec.from_json_dict(dict(MULTIVERTEX_2D, seed=seed))
    args, kwargs = descent_inputs(ps)
    _, g_ref = _reference(args, kwargs)
    point = ekeland.descend_g(*args, **kwargs)
    assert point.value <= g_ref + ekeland.EVP_TOL


def _same_bits_as_compass_reference(ps: ProblemSpec):
    args, kwargs = descent_inputs(ps)
    table, f1, sc, delta = args
    u_ref, g_ref = reference_compass(table, f1, sc, delta, kwargs["seed"])
    point = ekeland.descend_g(*args, **kwargs)
    assert point.u.tobytes() == u_ref.tobytes()
    assert np.float64(point.value).tobytes() == np.float64(g_ref).tobytes()


@pytest.mark.parametrize("name", BUNDLED)
def test_same_bits_as_compass_reference_on_bundled_problems(name, problems_dir):
    _same_bits_as_compass_reference(ProblemSpec.from_json_file(problems_dir / f"{name}.json"))


def test_same_bits_as_compass_reference_on_pair_3d():
    _same_bits_as_compass_reference(ProblemSpec.from_json_file(PAIR_3D))


@pytest.mark.parametrize("seed", [1, VALLEY_SEED])
def test_same_bits_as_compass_reference_on_multivertex_2d(seed):
    _same_bits_as_compass_reference(ProblemSpec.from_json_dict(dict(MULTIVERTEX_2D, seed=seed)))


def test_valley_takes_a_bounded_number_of_batches(monkeypatch):
    ps = ProblemSpec.from_json_dict(dict(MULTIVERTEX_2D, seed=VALLEY_SEED))
    args, kwargs = descent_inputs(ps)
    batches = []
    real = ekeland.phi_on_grid

    def spy(sc, pts):
        batches.append(len(pts))
        return real(sc, pts)

    monkeypatch.setattr(ekeland, "phi_on_grid", spy)
    monkeypatch.setattr(ekeland, "phi_eval", None)  # no point-at-a-time path
    point = ekeland.descend_g(*args, **kwargs)
    starts, stencil = 3, 8
    # 381 batches of at most 24 points, the three starts stepping together
    # (789 of at most 8 when they ran one after another); the golden-section
    # descent took about 7,500 single evaluations for one start
    assert len(batches) <= 400
    assert max(batches) <= starts * stencil
    # below the value where the old descent's 30 sweeps left it
    assert point.value < -0.039983


def test_table_points_are_not_evaluated_again(monkeypatch, problems_dir):
    args, kwargs = descent_inputs(ProblemSpec.from_json_file(problems_dir / "plane_2d.json"))
    table = args[0]
    known = {z.tobytes() for z in table.pts}
    seen = []
    real = ekeland.f_values

    def spy(f, X):
        seen.extend(x.tobytes() for x in X)
        return real(f, X)

    monkeypatch.setattr(ekeland, "f_values", spy)
    ekeland.descend_g(*args, **kwargs)
    assert seen and not known.intersection(seen)
    assert len(seen) == len(set(seen))


def test_one_dimensional_stencil_has_two_points(monkeypatch, problems_dir):
    # in 1-D the random directions are +-e1 again and are dropped, so each
    # round's batch holds 2 rows per live start; starts only ever stop
    args, kwargs = descent_inputs(ProblemSpec.from_json_file(problems_dir / "canonical_1d.json"))
    sizes = []
    real = ekeland._g_rows

    def spy(Z, *rest):
        sizes.append(len(Z))
        return real(Z, *rest)

    monkeypatch.setattr(ekeland, "_g_rows", spy)
    ekeland.descend_g(*args, **kwargs)
    starts = 3
    assert sizes[0] == 2 * starts
    assert all(size in (2, 4, 6) for size in sizes)
    assert sizes == sorted(sizes, reverse=True)


def test_a_batch_evaluates_each_fresh_row_once(monkeypatch, problems_dir):
    # two starts' stencils may share a point; it is evaluated once, and a
    # memo row not at all
    (table, f1, sc, _), kwargs = descent_inputs(
        ProblemSpec.from_json_file(problems_dir / "canonical_1d.json")
    )
    memo = {table.pts[0].tobytes(): float(table.g[0])}
    fresh = table.pts[0] + 1e-3
    Z = np.vstack([fresh, table.pts[0], fresh])
    seen = []
    real = ekeland.f_values

    def spy(f, X):
        seen.append(X.copy())
        return real(f, X)

    monkeypatch.setattr(ekeland, "f_values", spy)
    vals = ekeland._g_rows(Z, memo, f1, sc)
    assert len(seen) == 1 and seen[0].tobytes() == fresh.tobytes()
    assert vals[0] == vals[2] and vals[1] == table.g[0]
    assert memo[fresh.tobytes()] == vals[0]
