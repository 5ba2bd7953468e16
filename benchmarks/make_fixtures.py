#!/usr/bin/env python3
"""Write the certificates that the verify-dense workload rechecks.

    python3 benchmarks/make_fixtures.py

Runs the pipeline on the bundled specs named in ``workloads._DENSE`` and
writes ``benchmarks/fixtures/<name>.cert.json``.  The fixtures are
committed, so that the benchmark's set-up only loads them.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import mdmvi  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    problems = BENCH.parent / "src" / "mdmvi" / "problems"
    for name, _, _ in workloads._DENSE:
        spec = mdmvi.ProblemSpec.from_json_file(problems / f"{name}.json")
        cert = mdmvi.run(spec)
        out = workloads.FIXTURES / f"{name}.cert.json"
        out.write_text(json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n")
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
