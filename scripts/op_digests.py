#!/usr/bin/env python3
"""One line per benchmark operation: its outcome and a digest of its output.

    python3 scripts/op_digests.py --seeds 1 7 11 > digests.txt

Builds every operation of the benchmark's workloads (``benchmarks/
workloads.py``) for each seed, runs it once, and prints

    <workload> <seed> <op> <outcome> <error type or -> <sha256>

where the digest is that of the certificate JSON (a ``run`` operation),
of the verify report (a verify-only operation), or of the error message
(an operation that raised).  Outcomes are ``certified``, ``rejected``,
``typed`` (a documented error) or ``crash`` (any other exception).  Two
source trees compute the same thing on every operation exactly when
their outputs are equal; ``tests/golden/op_digests.txt`` holds the
committed ones for seeds 1, 7 and 11.  Run from the root of a source
checkout; BLAS is pinned to one thread, as in the benchmark.
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_digest(obj) -> str:
    return _sha256(json.dumps(obj, sort_keys=True, default=repr))


def op_line(workload: str, seed: int, op) -> str:
    try:
        if op.cert is None:
            cert = mdmvi.run(op.spec)
            valid, _ = mdmvi.verify_certificate(cert, op.spec)
            digest = _json_digest(cert.to_json_dict())
        else:
            valid, report = mdmvi.verify_certificate(op.cert, op.spec, resolution=op.resolution)
            digest = _json_digest(report)
        outcome, error = ("certified" if valid else "rejected"), "-"
    except TYPED as exc:
        outcome, error, digest = "typed", type(exc).__name__, _sha256(str(exc))
    except Exception as exc:  # reported, not raised: the next op still runs
        outcome, error, digest = "crash", type(exc).__name__, _sha256(str(exc))
    return f"{workload} {seed} {op.name} {outcome} {error} {digest}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 11])
    parser.add_argument("--workloads", nargs="+", choices=sorted(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            for op in workloads.build(workload, seed, mdmvi, ROOT):
                print(op_line(workload, seed, op), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
