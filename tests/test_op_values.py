"""The drift gate: every benchmark operation at seeds 1, 7 and 11 against
``tests/golden/op_values.json``, within the tolerances that file states.

``tests/golden/op_digests.txt`` asks for equal bytes; this gate lets a
change move xi, p and r by a relative 1e-6, keeps every slack above its
floor, and lets an outcome only improve.  A change that moves bytes on
purpose is judged here, and regenerates the digests in the open.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
VALUES = ROOT / "tests" / "golden" / "op_values.json"


def compare_values(reference: dict, fresh: dict) -> tuple[list[str], list[str]]:
    """(failures, improvements) of the ops in ``fresh`` against those in
    ``reference``, by the tolerances that ``reference`` states."""
    tol = reference["tolerances"]
    rel, order = tol["rel"], tol["outcome_order"]

    def by_op(doc: dict) -> dict:
        return {f"{e['workload']} {e['seed']} {e['op']}": e for e in doc["ops"]}

    ref, new = by_op(reference), by_op(fresh)
    failures = [f"{key}: missing" for key in ref if key not in new]
    failures += [f"{key}: not in the reference" for key in new if key not in ref]
    improvements = []
    for key in ref.keys() & new.keys():
        was, now = ref[key], new[key]
        rank_was, rank_now = order.index(was["outcome"]), order.index(now["outcome"])
        if rank_now > rank_was:
            failures.append(f"{key}: {was['outcome']} -> {now['outcome']}")
            continue
        if rank_now < rank_was:
            improvements.append(f"{key}: {was['outcome']} -> {now['outcome']}")
        for field in ("xi", "p", "r"):
            if field in was and field in now:
                a, b = np.atleast_1d(now[field]), np.atleast_1d(was[field])
                if a.shape != b.shape or np.any(np.abs(a - b) > rel * (1.0 + np.abs(b))):
                    failures.append(f"{key}: {field} {b.tolist()} -> {a.tolist()}")
        floors = now.get("slack_floors", {})
        for name, slack in now.get("slacks", {}).items():
            if not slack > floors.get(name, 0.0):
                failures.append(f"{key}: {name} slack {slack!r} <= floor {floors.get(name, 0.0)!r}")
    return sorted(failures), sorted(improvements)


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(VALUES.read_text())


def test_a_fresh_run_is_within_the_committed_tolerances(reference):
    # a subprocess, so that importing the benchmark's workloads leaves no
    # bytecode under benchmarks/
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "op_digests.py"), "--values"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    failures, improvements = compare_values(reference, json.loads(out.stdout))
    assert failures == []
    print("outcomes improved:", improvements)


def _op(doc: dict, workload: str, outcome: str) -> dict:
    return next(e for e in doc["ops"] if e["workload"] == workload and e["outcome"] == outcome)


def test_xi_moved_by_1e_3_fails(reference):
    fresh = copy.deepcopy(reference)
    op = _op(fresh, "line-1d", "certified")
    op["xi"][0] += 1e-3
    failures, _ = compare_values(reference, fresh)
    assert len(failures) == 1 and f"{op['op']}: xi" in failures[0]


def test_a_certified_op_turned_typed_fails(reference):
    fresh = copy.deepcopy(reference)
    op = _op(fresh, "hull-nd", "certified")
    for field in ("xi", "p", "r", "slacks", "slack_floors", "valid"):
        del op[field]
    op.update(outcome="typed", error="CertificateSearchError")
    failures, _ = compare_values(reference, fresh)
    assert failures == [f"hull-nd {op['seed']} {op['op']}: certified -> typed"]


def test_a_typed_op_turned_certified_passes_and_is_listed(reference):
    fresh = copy.deepcopy(reference)
    op = _op(fresh, "hull-nd", "typed")
    op.update(outcome="certified", error="-")
    assert compare_values(reference, fresh) == (
        [], [f"hull-nd {op['seed']} {op['op']}: typed -> certified"]
    )


def test_a_slack_at_its_floor_fails(reference):
    fresh = copy.deepcopy(reference)
    op = _op(fresh, "line-1d", "certified")
    op["slacks"]["value_localization"] = op["slack_floors"]["value_localization"]
    failures, _ = compare_values(reference, fresh)
    assert len(failures) == 1 and "value_localization slack" in failures[0]
