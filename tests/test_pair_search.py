"""The batched pair search of ``ekeland.fuzzy_pair`` bit for bit against
the offset-at-a-time search it replaced (``pair_reference``): the same
pair, or the same error, on the inputs ``run`` hands it, captured by
stopping the pipeline there.  A smoothing row whose certified gap is
refused fails the search only where the walk reads it."""

import numpy as np
import pytest

import mdmvi.ekeland as ekeland
import mdmvi.mdmvt as mdmvt
from mdmvi import Polytope, SupConvSpec, TentSpec, linear, restrict_f
from mdmvi.supconv import PhiEvalError, _fd_stencils

from helpers import force_gap
from pair_reference import perturbation_offsets, reference_pair
from test_descent import BUNDLED, VALLEY_SEED, _case

CASES = BUNDLED + (
    "pair_3d",
    "sphere8_3d",
    "multivertex_2d@1",
    f"multivertex_2d@{VALLEY_SEED}",
)


class _Stop(Exception):
    pass


def pair_inputs(name: str):
    """The positional and keyword arguments ``run`` passes to fuzzy_pair."""
    got = {}

    def capture(*args, **kwargs):
        got["args"], got["kwargs"] = args, kwargs
        raise _Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mdmvt, "fuzzy_pair", capture)
        with pytest.raises(_Stop):
            mdmvt.run(_case(name))
    return got["args"], got["kwargs"]


def _outcome(search, args, kwargs):
    """The pair's arrays and floats as bytes, or the error's type and text."""
    try:
        pair = search(*args, **kwargs)
    except Exception as exc:  # compared, not hidden
        return type(exc), str(exc)
    arrays = (pair.x, pair.p, pair.y, pair.q, np.float64(pair.residual), np.float64(pair.separation))
    return tuple(np.asarray(a).tobytes() for a in arrays)


def _same_outcome(args, kwargs):
    want = _outcome(reference_pair, args, kwargs)
    assert _outcome(ekeland.fuzzy_pair, args, kwargs) == want
    return want


def _stencils(args, kwargs) -> list[list[bytes]]:
    """The smoothing rows each offset of the pattern reads, in order."""
    u, f = args[0], args[1]
    offsets = ekeland._perturbation_offsets(f.dim, kwargs["search_radius"])
    Y = u.u + np.array(offsets)
    return [[z.tobytes() for z in S] for S in _fd_stencils(Y)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_offsets_are_the_listed_pattern(n):
    # rho * s / ||s||, in that order, row for row as the list computed it
    radii = np.geomspace(1e-9, 1e3, 60).tolist() + [1 / 3, 0.05, 0.0125]
    radii += np.random.default_rng(n).uniform(0.0, 1.0, 40).tolist()
    for radius in radii:
        got = ekeland._perturbation_offsets(n, radius)
        want = perturbation_offsets(n, radius)
        assert got.shape == (len(want), n) == (1 + 4 * (3**n - 1), n)
        assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_same_pair_as_reference(name):
    args, kwargs = pair_inputs(name)
    _same_outcome(args, kwargs)


@pytest.mark.parametrize("name", ["max_affine_1d", "plane_2d"])
def test_same_pair_as_reference_without_grid_values(name):
    args, kwargs = pair_inputs(name)
    _same_outcome(args, dict(kwargs, grid_phi=None))


@pytest.mark.parametrize("name", ["max_affine_1d", "plane_2d", "multivertex_2d@1", "sphere8_3d"])
def test_a_refused_row_raises_where_the_walk_reads_it(name, monkeypatch):
    args, kwargs = pair_inputs(name)
    stencils = _stencils(args, kwargs)
    rng = np.random.default_rng(0)
    for j in range(0, len(stencils), max(1, len(stencils) // 5)):
        # two rows of offset j's stencil at random, and every row after it
        rows = stencils[j]
        forced = {rows[i] for i in rng.choice(len(rows), size=2, replace=False)}
        forced = forced.union(*stencils[j + 1 :])
        with monkeypatch.context() as mp:
            force_gap(mp, forced)
            kind, message = _same_outcome(args, kwargs)
        first = next(z for z in rows if z in forced)
        assert kind is PhiEvalError
        assert message.startswith(f"could not certify value at {np.frombuffer(first).tolist()}")


def _exact_cancellation():
    """A pair search whose first offset cancels exactly: outside B = {1}
    the smoothing of the unit tent with K = 2 has slope -2, and so has f."""
    A, B = Polytope([[0.0]]), Polytope([[1.0]])
    sc = SupConvSpec(TentSpec(A, B, 0.0, 1.0), 2.0)
    f1 = restrict_f(linear([-2.0]), A, B, 0.5)
    u = ekeland.EkelandPoint(u=np.array([1.2]), eps=0.1, value=0.0)
    grid = np.linspace(-0.5, 1.5, 101)[:, None]
    return (u, f1, sc), {"search_radius": 0.05, "grid": grid}


def test_a_refused_row_past_the_early_exit_fails_nothing(monkeypatch):
    args, kwargs = _exact_cancellation()
    want = _same_outcome(args, kwargs)
    pair = ekeland.fuzzy_pair(*args, **kwargs)
    assert pair.residual == 0.0 and pair.y.tobytes() == args[0].u.tobytes()
    stencils = _stencils(args, kwargs)
    hits = force_gap(monkeypatch, set().union(*stencils[1:]))
    assert _same_outcome(args, kwargs) == want
    assert hits  # the batch did hold the refused rows


def test_a_refused_row_at_the_early_exit_raises(monkeypatch):
    args, kwargs = _exact_cancellation()
    force_gap(monkeypatch, set(_stencils(args, kwargs)[0][1:]))
    kind, message = _same_outcome(args, kwargs)
    assert kind is PhiEvalError
    assert message.startswith(f"could not certify value at [{1.2 + 1e-5!r}]")
