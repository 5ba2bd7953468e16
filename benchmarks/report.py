#!/usr/bin/env python3
"""Run every workload untraced and traced, and print one table.

    python3 benchmarks/report.py [--seed 1] [--seconds 40] [--out FILE]

Each workload runs in its own ``run.py`` process, one after another.  The
table holds every end-to-end metric (with fail_share and crash_share) and
every per-layer metric, including the tracing overhead.  With ``--out``
the table and the environment are also written as JSON.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--out")
    args = parser.parse_args()

    table: dict[str, dict] = {}
    env = None
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=BENCH.parent)
            tag = f"{workload}-seed{args.seed}-trace{trace}"
            record = json.loads((BENCH / "out" / f"{tag}.json").read_text())
            env = record["environment"]
            entry = table.setdefault(workload, {"correct": True, "failed": 0, "metrics": {}})
            entry["correct"] &= record["correct"]
            entry["failed"] += record["failed"]
            entry["metrics"].update(record["metrics"])
            entry.setdefault("outcomes", {}).update(
                {r["name"]: [r["outcome"], r["error"]] for r in record["records"]}
            )

    names = sorted({m for entry in table.values() for m in entry["metrics"]})
    print(f"# {env['cpu_model']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, commit {env['commit']}, seed {args.seed}")
    print(f"{'metric':48s}" + "".join(f"{w:>16s}" for w in table))
    for name in names:
        cells = [entry["metrics"].get(name) for entry in table.values()]
        print(f"{name:48s}" + "".join("               -" if v is None else f"{v:16.6g}" for v in cells))
    print(f"{'correct':48s}" + "".join(f"{str(e['correct']):>16s}" for e in table.values()))
    if args.out:
        Path(args.out).write_text(
            json.dumps({"environment": env, "seed": args.seed, "seconds": args.seconds,
                        "workloads": table}, indent=1, sort_keys=True) + "\n"
        )
    return 0 if all(e["correct"] for e in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
