"""The benchmark's workloads: which operations each one runs, and why.

Every workload is a fixed list of operations (one "pass"), built from the
workload seed alone.  An operation on a ``run`` spec is ``run(spec)``
followed by ``verify_certificate(cert, spec)`` at the spec's resolution;
an operation carrying a certificate is ``verify_certificate(cert, spec,
resolution=R)`` on that certificate alone.

The stress specs live in ``benchmarks/specs``, never in the program's
``problems`` directory, so the acceptance suite's data stays untouched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SPECS = BENCH / "specs"
FIXTURES = BENCH / "fixtures"

# outcome classes, best first; an operation fails when its outcome ranks
# below the one its spec is expected to reach
OUTCOMES = ("certified", "typed", "crash", "rejected")


@dataclass(frozen=True)
class Op:
    name: str
    spec: object  # mdmvi.ProblemSpec
    cert: object = None  # mdmvi.Certificate, for verify-only operations
    resolution: int | None = None  # verifier resolution for verify-only ones
    expect: str = "certified"


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def translate(data: dict, offset) -> dict:
    """The same problem moved by ``offset``: sets shifted, and the linear
    f re-based so that f takes the same values at the moved points."""
    if data["function"]["id"] != "linear":
        raise ValueError("only linear specs can be translated")
    offset = np.asarray(offset, dtype=float)
    a = np.asarray(data["function"]["params"]["a"], dtype=float)
    b = float(data["function"]["params"]["b"]) - float(a @ offset)
    return dict(
        data,
        function={"id": "linear", "params": {"a": a.tolist(), "b": b}},
        A=(np.asarray(data["A"], dtype=float) + offset).tolist(),
        B=(np.asarray(data["B"], dtype=float) + offset).tolist(),
    )


def rotate_2d(data: dict, theta: float) -> dict:
    """The same 2-D linear problem rotated about the origin by ``theta``."""
    if data["function"]["id"] != "linear":
        raise ValueError("only linear specs can be rotated")
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    a = R @ np.asarray(data["function"]["params"]["a"], dtype=float)
    return dict(
        data,
        function={"id": "linear", "params": {"a": a.tolist(), "b": data["function"]["params"]["b"]}},
        A=(np.asarray(data["A"], dtype=float) @ R.T).tolist(),
        B=(np.asarray(data["B"], dtype=float) @ R.T).tolist(),
    )


def _reseed(data: dict, rng) -> dict:
    return dict(data, seed=int(rng.integers(0, 2**31 - 1)))


def line_1d(mdmvi, rng, problems: Path) -> list[Op]:
    # Why: the six bundled 1-D problems are most of the bundled traffic.
    # Time goes to hull-membership LPs (restrict_f -> classify_point ->
    # dist_to_hull -> solve_lp) and the _estimate_inf line searches.  The
    # smoothing sees 2-vertex hulls and is cheap per call, so a
    # smoothing-only speedup should barely move this workload.
    ops = []
    for path in sorted(problems.glob("*.json")):
        data = _load(path)
        if len(data["A"][0]) == 1:
            ops.append(Op(path.stem, mdmvi.ProblemSpec.from_json_dict(_reseed(data, rng))))
    return ops


# Moves found by trying uniformly drawn ones at the commit that added this
# benchmark.  About one drawn translation in five crashed, and whether a
# rotated plane_2d ends in a RuntimeError (about 3 s) or a
# SpecInvariantError (8-12 s) flips with the third digit of the angle;
# drawing them from the seed would make outcomes and cost depend on it.
PLANE_SHIFT = (-0.642, 0.28)  # certifies
PAIR_SHIFT = (-0.984, -0.228, -0.835)  # certifies
PAIR_CRASH_SHIFT = (-0.807, 0.013, -0.207)  # PhiEvalError
PLANE_CRASH_ANGLE = 0.3  # RuntimeError: no boundary samples found


def hull_nd(mdmvi, rng, problems: Path) -> list[Op]:
    # Why: multi-vertex and 3-D hulls.  Frank-Wolfe smoothing
    # (maximize_concave under phi_eval) dominates plane_2d; in 3-D the
    # fuzzy_pair -> phi_supergradient grid checks and golden_max sweeps
    # take over.  The last three specs crash today: a rotation and a
    # translation of specs that certify, and a multi-vertex hull whose LP
    # weights fail validation (ValueError).  A typed-failure fix shows as
    # a higher no_crash_share, a fix that certifies them as a higher
    # certs_per_min.  A verifier-only speedup should barely move this one.
    plane = _load(problems / "plane_2d.json")
    pair = _load(SPECS / "pair_3d.json")
    specs = {
        "plane_2d+t": (translate(plane, PLANE_SHIFT), "certified"),
        "pair_3d+t": (translate(pair, PAIR_SHIFT), "certified"),
        "plane_2d@rot": (rotate_2d(plane, PLANE_CRASH_ANGLE), "crash"),
        "pair_3d@shift": (translate(pair, PAIR_CRASH_SHIFT), "crash"),
        "multivertex_2d": (_load(SPECS / "multivertex_2d.json"), "crash"),
    }
    return [
        Op(name, mdmvi.ProblemSpec.from_json_dict(_reseed(data, rng)), expect=expect)
        for name, (data, expect) in specs.items()
    ]


# verifier resolution ranges: narrow, so that the seed varies the grid
# without moving the cost by more than a few per cent
_DENSE = (("plane_2d", 300, 302), ("restricted_quadratic_1d", 7901, 8101))


def verify_dense(mdmvi, rng, problems: Path) -> list[Op]:
    # Why: the checker's path, which a third party runs on a certificate
    # it did not make.  Time goes to f_eval over dense oracle grids
    # (oracles.grid_inf) and the support-gap filter.  Supconv, tent,
    # ekeland and Frank-Wolfe do no work here, so a smoothing or search
    # optimisation must read "no change"; a vectorised f or verifier
    # moves mostly this workload.  The certificates are committed
    # fixtures (see make_fixtures.py), so loading them is set-up.
    ops = []
    for name, lo, hi in _DENSE:
        spec = mdmvi.ProblemSpec.from_json_file(problems / f"{name}.json")
        cert = mdmvi.Certificate.from_json_file(FIXTURES / f"{name}.cert.json")
        ops.append(Op(name, spec, cert, int(rng.integers(lo, hi + 1))))
    return ops


WORKLOADS = {"line-1d": line_1d, "hull-nd": hull_nd, "verify-dense": verify_dense}


def build(workload: str, seed: int, mdmvi, root: Path) -> list[Op]:
    """The operations of one pass of ``workload`` for ``seed``."""
    rng = np.random.default_rng(seed)
    return WORKLOADS[workload](mdmvi, rng, root / "src" / "mdmvi" / "problems")
