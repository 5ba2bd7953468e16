"""The speculative compass search of ``ekeland.descend_g`` against the
coordinate-and-golden descent it replaced (``descent_reference``), and bit
for bit against the start-after-start and lockstep compass searches
(``compass_reference``).

All read the inputs ``run`` hands ``descend_g``, captured by stopping the
pipeline there.
"""

from pathlib import Path

import numpy as np
import pytest

import mdmvi.ekeland as ekeland
import mdmvi.mdmvt as mdmvt
from mdmvi import ProblemSpec
from mdmvi.supconv import PhiEvalError

import compass_reference
from compass_reference import reference_compass, reference_lockstep
from descent_reference import reference_descent
from helpers import force_gap
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
SPECS = Path(__file__).resolve().parent / "specs"
# eight points per side on a sphere: a 3-D hull of many vertices
SPHERE8_3D = SPECS / "sphere8_3d.json"


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


def test_same_bits_as_compass_reference_on_sphere8_3d():
    _same_bits_as_compass_reference(ProblemSpec.from_json_file(SPHERE8_3D))


@pytest.mark.parametrize("seed", [1, VALLEY_SEED])
def test_same_bits_as_compass_reference_on_multivertex_2d(seed):
    _same_bits_as_compass_reference(ProblemSpec.from_json_dict(dict(MULTIVERTEX_2D, seed=seed)))


def _case(name: str) -> ProblemSpec:
    """A bundled problem by name, ``pair_3d``, a spec of ``tests/specs``
    or ``multivertex_2d@<seed>``."""
    if name == "pair_3d":
        return ProblemSpec.from_json_file(PAIR_3D)
    if name in ("circle8_2d", "sphere8_3d"):
        return ProblemSpec.from_json_file(SPECS / f"{name}.json")
    if name.startswith("multivertex_2d@"):
        return ProblemSpec.from_json_dict(dict(MULTIVERTEX_2D, seed=int(name.split("@")[1])))
    return ProblemSpec.from_json_file(
        Path(ekeland.__file__).parent / "problems" / f"{name}.json"
    )


def _lockstep_batches(args, kwargs, monkeypatch) -> list[list[bytes]]:
    """The rows of each smoothing batch of the lockstep reference: the
    fresh rows of each round where f1 is finite."""
    batches = []
    real = compass_reference.phi_on_grid

    def spy(sc, pts):
        batches.append([z.tobytes() for z in pts])
        return real(sc, pts)

    with monkeypatch.context() as mp:
        mp.setattr(compass_reference, "phi_on_grid", spy)
        table, f1, sc, delta = args
        reference_lockstep(table, f1, sc, delta, kwargs["seed"])
    return batches


def _speculative_only(args, kwargs, monkeypatch) -> set[bytes]:
    """The rows descend_g evaluates that the lockstep reference does not,
    the table's aside: the reference reads those from its memo, and the
    run's ``g_table`` has already certified them."""
    rows = set()
    real = ekeland.phi_rows

    def spy(sc, pts):
        rows.update(z.tobytes() for z in pts)
        return real(sc, pts)

    with monkeypatch.context() as mp:
        mp.setattr(ekeland, "phi_rows", spy)
        ekeland.descend_g(*args, **kwargs)
    read = {z for batch in _lockstep_batches(args, kwargs, monkeypatch) for z in batch}
    return rows - read - {z.tobytes() for z in args[0].pts}


REFUSAL_CASES = ("canonical_1d", "quadratic_1d", "plane_2d", "multivertex_2d@1")


@pytest.mark.parametrize("name", REFUSAL_CASES)
def test_a_refused_row_that_no_step_reads_fails_nothing(name, monkeypatch):
    args, kwargs = descent_inputs(_case(name))
    table, f1, sc, delta = args
    unread = _speculative_only(args, kwargs, monkeypatch)
    u_ref, g_ref = reference_lockstep(table, f1, sc, delta, kwargs["seed"])
    hits = force_gap(monkeypatch, unread)
    point = ekeland.descend_g(*args, **kwargs)
    assert hits  # the kernel did certify a refused gap on them
    assert point.u.tobytes() == u_ref.tobytes()
    assert np.float64(point.value).tobytes() == np.float64(g_ref).tobytes()


@pytest.mark.parametrize("name", REFUSAL_CASES)
def test_a_refused_row_that_a_step_reads_raises_as_the_references_do(name, monkeypatch):
    # one row, read in round t: every search names it
    args, kwargs = descent_inputs(_case(name))
    table, f1, sc, delta = args
    batches = _lockstep_batches(args, kwargs, monkeypatch)
    for t in range(0, len(batches), max(1, len(batches) // 6)):
        with monkeypatch.context() as mp:
            force_gap(mp, {batches[t][-1]})
            with pytest.raises(PhiEvalError) as want:
                reference_compass(table, f1, sc, delta, kwargs["seed"])
            with pytest.raises(PhiEvalError) as got:
                ekeland.descend_g(*args, **kwargs)
            assert str(got.value) == str(want.value)
            assert str(want.value).startswith(
                f"could not certify value at {np.frombuffer(batches[t][-1]).tolist()}"
            )


@pytest.mark.parametrize("name", REFUSAL_CASES)
def test_several_refused_rows_raise_the_lockstep_error(name, monkeypatch):
    # three read rows drawn at random, or the rows of one round, and every
    # row no step reads: the starts reach their steps in different rounds
    # here, and the error is still that of the first refused row of the
    # earliest lockstep round
    args, kwargs = descent_inputs(_case(name))
    table, f1, sc, delta = args
    batches = _lockstep_batches(args, kwargs, monkeypatch)
    unread = _speculative_only(args, kwargs, monkeypatch)
    read = [z for batch in batches[1:] for z in batch]
    rng = np.random.default_rng(0)
    picks = [{read[i] for i in rng.choice(len(read), size=3, replace=False)} for _ in range(20)]
    # and every row first read in one round, where starts tie on the step
    picks += [set(batch) for batch in batches[1 :: max(1, len(batches) // 8)]]
    for pick in picks:
        with monkeypatch.context() as mp:
            force_gap(mp, unread | pick)
            with pytest.raises(PhiEvalError) as want:
                reference_lockstep(table, f1, sc, delta, kwargs["seed"])
            with pytest.raises(PhiEvalError) as got:
                ekeland.descend_g(*args, **kwargs)
            assert str(got.value) == str(want.value)


def test_valley_takes_a_bounded_number_of_batches(monkeypatch):
    ps = ProblemSpec.from_json_dict(dict(MULTIVERTEX_2D, seed=VALLEY_SEED))
    args, kwargs = descent_inputs(ps)
    batches = []
    real = ekeland.phi_rows

    def spy(sc, pts):
        batches.append(len(pts))
        return real(sc, pts)

    monkeypatch.setattr(ekeland, "phi_rows", spy)
    monkeypatch.setattr(ekeland, "phi_eval", None)  # no point-at-a-time path
    point = ekeland.descend_g(*args, **kwargs)
    starts, scales, stencil = 3, 4, 8
    # 178 batches of at most 96 points, each start's stencils at four or
    # more scales together (180 at four, 381 of at most 24 at one scale per
    # batch, 789 of at most 8 when the starts ran one after another); the
    # golden-section descent took about 7,500 single evaluations for one
    # start
    assert len(batches) <= 200
    assert max(batches) <= starts * scales * stencil
    # below the value where the old descent's 30 sweeps left it
    assert point.value < -0.039983


def test_one_dimensional_stencil_has_two_points(monkeypatch, problems_dir):
    # in 1-D the random directions are +-e1 again and are dropped, so each
    # round's batch holds the pair x + h, x - h for every scale of every
    # live start: 2 rows per live start per scale, with as many scales as
    # fill the round's budget of rows
    args, kwargs = descent_inputs(ProblemSpec.from_json_file(problems_dir / "canonical_1d.json"))
    batches = []
    real = ekeland._g_rows

    def spy(Z, *rest):
        batches.append(Z[:, 0].copy())
        return real(Z, *rest)

    monkeypatch.setattr(ekeland, "_g_rows", spy)
    ekeland.descend_g(*args, **kwargs)
    starts, budget = 3, ekeland._ROUND_ROWS
    scales = budget // (2 * starts)
    assert scales > 4
    assert len(batches[0]) == 2 * starts * scales
    for Z in batches:
        assert len(Z) % 2 == 0 and len(Z) <= budget
        assert (Z[0::2] > Z[1::2]).all()
    # 15 rounds, where four scales per round took 20 and one scale 59
    assert len(batches) <= 15


@pytest.mark.parametrize("name", ["plane_2d", "multivertex_2d@1", "sphere8_3d"])
def test_a_round_holds_four_scales_where_the_budget_is_full(name, monkeypatch):
    # three live starts fill the budget at four scales in 2-D and 3-D, so
    # the first round is as before; no round goes past the budget, or past
    # four scales where those alone exceed it
    args, kwargs = descent_inputs(_case(name))
    rounds = []  # (rows per scale, scales, rows evaluated) of each round
    real_scales, real_rows = ekeland._round_scales, ekeland._g_rows

    def spy_scales(rows_per_scale):
        rounds.append([rows_per_scale, real_scales(rows_per_scale)])
        return rounds[-1][1]

    def spy_rows(Z, *rest):
        rounds[-1].append(len(Z))
        return real_rows(Z, *rest)

    monkeypatch.setattr(ekeland, "_round_scales", spy_scales)
    monkeypatch.setattr(ekeland, "_g_rows", spy_rows)
    ekeland.descend_g(*args, **kwargs)
    dim = args[0].pts.shape[1]
    stencil = 2 * (dim + 2)  # the coordinates and two random directions, both signs
    assert rounds[0] == [3 * stencil, 4, 3 * 4 * stencil]
    for rows_per_scale, scales, rows in rounds:
        assert rows_per_scale % stencil == 0
        assert rows <= max(ekeland._ROUND_ROWS, 4 * rows_per_scale)
        assert rows <= scales * rows_per_scale


@pytest.mark.parametrize("name", BUNDLED + ("circle8_2d", "sphere8_3d"))
def test_g_rows_reproduce_the_table_in_any_batch(name):
    # the descent evaluates table points and revisited points again; g on
    # a row is the table's, whatever the rest of its batch holds
    (table, f1, sc, _), _ = descent_inputs(_case(name))
    n = len(table.pts)
    for order in (np.arange(n), np.arange(n)[::-1], np.repeat(np.arange(n), 2)):
        got = ekeland._g_rows(table.pts[order], f1, sc)
        assert got.tobytes() == table.g[order].tobytes()
