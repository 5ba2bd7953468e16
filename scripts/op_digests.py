#!/usr/bin/env python3
"""One line per benchmark operation: its outcome and a digest of its output.

    python3 scripts/op_digests.py --seeds 1 7 11 > digests.txt
    python3 scripts/op_digests.py --values > values.json

Builds every operation of the benchmark's workloads (``benchmarks/
workloads.py``) for each seed, runs it once, and prints

    <workload> <seed> <op> <outcome> <error type or -> <sha256>

where the digest is that of the certificate JSON (a ``run`` operation),
of the verify report (a verify-only operation), or of the error message
(an operation that raised).  Outcomes are ``certified``, ``rejected``,
``typed`` (a documented error) or ``crash`` (any other exception).  Two
source trees compute the same thing on every operation exactly when
their outputs are equal; ``tests/golden/op_digests.txt`` holds the
committed ones for seeds 1, 7 and 11.

With ``--values`` it prints instead one JSON document: the tolerances of
the drift gate (``TOLERANCES``) and, per operation, its outcome and error
type, and for a ``run`` operation the certificate's xi, p, r, three slacks
and slack floors and the verifier's ``valid``, for a verify-only one the
report's three slacks and ``valid``.  ``tests/golden/op_values.json``
holds it for seeds 1, 7 and 11, and ``tests/test_op_values.py`` holds a
fresh run to it within those tolerances, where the digests ask for
equality.  Run from the root of a source checkout; BLAS is pinned to one
thread, as in the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave the benchmark directory as it was
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import mdmvi  # noqa: E402
import workloads  # noqa: E402

TYPED = (mdmvi.SpecFormatError, mdmvi.SpecInvariantError, mdmvi.CertificateSearchError)
TOLERANCES = {
    "rel": 1e-6,
    "coordinates": "xi, p and r each within |a - b| <= rel (1 + |b|) of the committed value",
    "slacks": "each slack above its floor: slack_floors for a run op, 0 for a verify-only op",
    "outcomes": "an outcome may only improve, in outcome_order (best first), "
    "and each improvement is listed",
    "outcome_order": list(workloads.OUTCOMES),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_digest(obj) -> str:
    return _sha256(json.dumps(obj, sort_keys=True, default=repr))


def run_op(op):
    """Run one operation: (outcome, error type or "-", the certificate of a
    ``run`` operation or None, the verify report or the exception raised)."""
    try:
        if op.cert is None:
            cert = mdmvi.run(op.spec)
            valid, report = mdmvi.verify_certificate(cert, op.spec)
        else:
            cert = None
            valid, report = mdmvi.verify_certificate(op.cert, op.spec, resolution=op.resolution)
        return ("certified" if valid else "rejected"), "-", cert, report
    except TYPED as exc:
        return "typed", type(exc).__name__, None, exc
    except Exception as exc:  # reported, not raised: the next op still runs
        return "crash", type(exc).__name__, None, exc


def op_line(workload: str, seed: int, op) -> str:
    outcome, error, cert, out = run_op(op)
    if isinstance(out, Exception):
        digest = _sha256(str(out))
    else:
        digest = _json_digest(out if cert is None else cert.to_json_dict())
    return f"{workload} {seed} {op.name} {outcome} {error} {digest}"


def op_values(workload: str, seed: int, op) -> dict:
    outcome, error, cert, out = run_op(op)
    entry = {"workload": workload, "seed": seed, "op": op.name, "outcome": outcome, "error": error}
    if cert is not None:
        entry.update(
            xi=cert.xi.tolist(),
            p=cert.p.tolist(),
            r=cert.params.r,
            slacks={name: chk.slack for name, chk in sorted(cert.checks.items())},
            slack_floors=cert.diagnostics["slack_floors"],
        )
    if not isinstance(out, Exception):
        if cert is None:
            entry["slacks"] = {name: out[name]["slack"] for name in sorted(op.cert.checks)}
        entry["valid"] = out["valid"]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 11])
    parser.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--values", action="store_true",
                        help="print one JSON document of the values the drift gate compares")
    args = parser.parse_args(argv)
    ops = [(workload, seed, op) for workload in args.workloads for seed in args.seeds
           for op in workloads.build(workload, seed, mdmvi, ROOT)]
    if args.values:
        values = [op_values(*entry) for entry in ops]
        print(json.dumps({"tolerances": TOLERANCES, "ops": values}, indent=1))
        return 0
    for entry in ops:
        print(op_line(*entry), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
