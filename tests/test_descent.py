"""The batched compass search of ``ekeland.descend_g`` against the
coordinate-and-golden descent it replaced (``descent_reference``).

Both read the inputs ``run`` hands ``descend_g``, captured by stopping the
pipeline there.
"""

import pytest

import mdmvi.ekeland as ekeland
import mdmvi.mdmvt as mdmvt
from mdmvi import ProblemSpec

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
    return reference_descent(table, f1, sc, delta, kwargs["seed"], kwargs["phi_tol"])


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
    assert point.value <= g_ref + ekeland.DEFAULT_EVP_TOL


def test_valley_takes_a_bounded_number_of_batches(monkeypatch):
    ps = ProblemSpec.from_json_dict(dict(MULTIVERTEX_2D, seed=VALLEY_SEED))
    args, kwargs = descent_inputs(ps)
    batches = []
    real = ekeland.phi_on_grid

    def spy(sc, pts, tol=1e-8):
        batches.append(len(pts))
        return real(sc, pts, tol=tol)

    monkeypatch.setattr(ekeland, "phi_on_grid", spy)
    monkeypatch.setattr(ekeland, "phi_eval", None)  # no point-at-a-time path
    point = ekeland.descend_g(*args, **kwargs)
    starts = 3
    # 789 batches of at most 8 points over the three start points; the
    # golden-section descent took about 7,500 single evaluations for one
    assert len(batches) <= starts * 300
    assert max(batches) <= 8
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
    # in 1-D the random directions are +-e1 again and are dropped
    args, kwargs = descent_inputs(ProblemSpec.from_json_file(problems_dir / "canonical_1d.json"))
    sizes = []
    real = ekeland.f_values

    def spy(f, X):
        sizes.append(len(X))
        return real(f, X)

    monkeypatch.setattr(ekeland, "f_values", spy)
    ekeland.descend_g(*args, **kwargs)
    assert sizes and max(sizes) <= 2

