#!/usr/bin/env python3
"""mdmvi benchmark: verified-certificate throughput, closed loop.

    python3 benchmarks/run.py --workload line-1d --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One process runs one operation at a time, with BLAS
pinned to one thread.  Workloads and their operations are defined in
``workloads.py``.

Every operation ends in one outcome: ``certified`` (a certificate came
back and the verifier accepted it), ``typed`` (a documented error),
``crash`` (any other exception, which a CLI user sees as a traceback) or
``rejected`` (a returned certificate that the verifier refused, which is
a wrong output).  A run makes one whole pass over the workload's
operations, then goes on with more, in order, while the last duration of
the next one still fits in ``--seconds``.

With ``--trace 0`` it reports the end-to-end metrics; each is computed
per pass from per-operation medians, so a partial last pass does not
shift the mix.  The two times are in reference seconds (see ``pace.py``):
wall time scaled, stretch by stretch, by the speed the shared host shows
for a fixed calibration loop at that moment, so that the host's own
swings cancel and a change of the program's speed does not.  The wall
figures are printed and recorded beside them.

    setup_s          median over eight fresh interpreters, started at
                     even intervals over the measured time, of the time
                     from start to a built workload: importing numpy and
                     mdmvi, generating and parsing the specs, loading the
                     certificates
    certs_per_min    verified certificates per reference minute of pass
                     time; time spent on failed operations counts and
                     earns nothing
    certified_share  operations certified / attempted (1 - fail_share)
    no_crash_share   operations not crashed / attempted (1 - crash_share)
    min_slack        smallest verified inequality slack, certified ops
    peak_rss_mb      peak resident set size of this process

With ``--trace 1`` it runs one pass with spans around every layer (see
``tracer.py``), then the same operations untraced, and reports the
per-layer metrics and the tracing overhead (traced minus untraced time of
the operations run both ways).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics declared in BENCHMARK.json.
``failed`` counts operations whose outcome ranks below the one their spec
is expected to reach (certified for all but the known-failing specs of
hull-nd, which are expected to crash); the known failures themselves show
in certified_share and no_crash_share.  ``correct`` is false when a
returned certificate is rejected, or when one spec's outcome or output
digest differs between passes of the run.  A full record, with every
operation's outcome, error type, slack and SHA-256 digest, goes to
``benchmarks/out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 8  # fresh interpreters per run, for setup_s
TRACE_CAP_S = 110.0
CHECKS = ("value_localization", "subgradient_norm", "mean_value_increment")

sys.dont_write_bytecode = True  # leave the checkout as it was
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import pace  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@dataclass
class Record:
    name: str
    outcome: str
    error: str | None
    seconds: float
    min_slack: float | None
    digest: str | None
    rejected_attempts: int
    ref_seconds: float | None = None  # paced operations only


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def load(workload: str, seed: int):
    """Import mdmvi from the checkout's sources and build the workload."""
    src = ROOT / "src"
    if not (src / "mdmvi" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no mdmvi sources under {src}")
    sys.path.insert(0, str(src))
    mdmvi = importlib.import_module("mdmvi")
    return mdmvi, workloads.build(workload, seed, mdmvi, ROOT)


_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import pace
with pace.Pace(since=t0) as p:
    import pathlib, mdmvi, workloads
    workloads.build(sys.argv[3], int(sys.argv[4]), mdmvi, pathlib.Path(sys.argv[5]))
print(p.wall_s, p.ref_s, time.perf_counter() - t0)
"""


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall and reference seconds for a fresh interpreter to import mdmvi
    and build the workload: the set-up a user pays before the first
    operation.  The fresh interpreter paces itself from its first line
    on; its start and exit are scaled at the pace it saw."""
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, "-B", "-c", _PROBE, str(ROOT / "src"), str(BENCH), workload, str(seed), str(ROOT)],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    wall = perf_counter() - t0
    work_s, ref_s, paced_s = map(float, out.split()[-3:])
    wall -= paced_s - work_s  # the child's timer samples
    return wall, wall * ref_s / work_s


def execute(op, mdmvi, paced: bool = False) -> Record:
    """Run one operation; ``paced`` also times it in reference seconds."""
    typed = (mdmvi.SpecFormatError, mdmvi.SpecInvariantError, mdmvi.CertificateSearchError)
    cert, report, error = op.cert, None, None
    timer = pace.Pace() if paced else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with timer:
            if op.cert is None:
                cert = mdmvi.run(op.spec)
                valid, report = mdmvi.verify_certificate(cert, op.spec)
            else:
                valid, report = mdmvi.verify_certificate(op.cert, op.spec, resolution=op.resolution)
        outcome = "certified" if valid else "rejected"
    except typed as exc:
        outcome, error = "typed", type(exc).__name__
    except Exception as exc:  # a traceback for a CLI user: record, go on
        outcome, error = "crash", type(exc).__name__
    seconds = timer.wall_s if paced else perf_counter() - t0
    ref_seconds = timer.ref_s if paced else None
    if report is None:
        return Record(op.name, outcome, error, seconds, None, None, 0, ref_seconds)
    # a new certificate is the output of run; a fixture's is the report
    digest = _digest(report if op.cert is not None else cert.to_json_dict())
    return Record(
        op.name,
        outcome,
        error,
        seconds,
        min(float(report[k]["slack"]) for k in CHECKS),
        digest,
        len(cert.diagnostics.get("rejected_attempts", [])) if op.cert is None else 0,
        ref_seconds,
    )


def measure(ops, mdmvi, seconds: float, probe) -> tuple[list[Record], list]:
    """One whole pass over ``ops``, then more operations in order while
    each one's last duration still fits in ``seconds``; all paced.  The
    SETUP_PROBES calls of ``probe`` are spread evenly over the measured
    time, between operations, and their own time does not count, so that
    they sample the host's phases as the operations do."""
    spent, records, setup, last = 0.0, [], [], {}
    for i, op in enumerate(itertools.chain(ops, itertools.cycle(ops))):
        while len(setup) < SETUP_PROBES and spent >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
        if i >= len(ops) and spent + last[op.name] > seconds:
            break
        t0 = perf_counter()
        records.append(execute(op, mdmvi, paced=True))
        spent += perf_counter() - t0
        last[op.name] = records[-1].seconds
    setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
    return records, setup


def trace(ops, mdmvi, started: float):
    """One traced pass, then the same operations untraced for the
    overhead; the untraced ones stop starting after TRACE_CAP_S of the
    run, so that a slow host cannot push a traced run past its limit."""
    tracer = Tracer()
    tracer.install()
    try:
        records = []
        for i, op in enumerate(ops):
            tracer.begin_op(i)
            records.append(execute(op, mdmvi))
    finally:
        tracer.uninstall()
    for op in ops:
        if len(records) > len(ops) and perf_counter() - started > TRACE_CAP_S:
            break
        records.append(execute(op, mdmvi))
    return tracer, records


def summarize(ops, records) -> dict:
    by_name = {op.name: [r for r in records if r.name == op.name] for op in ops}
    n = len(ops)

    def share(outcome):
        return sum(
            sum(r.outcome == outcome for r in rs) / len(rs) for rs in by_name.values()
        ) / n

    def pass_s(key):
        return sum(statistics.median(key(r) for r in rs) for rs in by_name.values())

    ref_pass_s, wall_pass_s = pass_s(lambda r: r.ref_seconds), pass_s(lambda r: r.seconds)
    certified = share("certified")
    slacks = [r.min_slack for r in records if r.outcome == "certified"]
    return {
        "certs_per_min": 60.0 * certified * n / ref_pass_s,
        "certs_per_wall_min": 60.0 * certified * n / wall_pass_s,
        "certified_share": certified,
        "no_crash_share": 1.0 - share("crash"),
        "fail_share": 1.0 - certified,
        "crash_share": share("crash"),
        "min_slack": min(slacks) if slacks else 0.0,
        "pass_s": ref_pass_s,
        "pass_wall_s": wall_pass_s,
    }


def check(ops, records) -> tuple[bool, int, list[str]]:
    """Correctness (no rejected certificate, every spec deterministic
    across passes) and the count of operations below expectation."""
    problems = []
    expect = {op.name: op.expect for op in ops}
    failed = sum(
        workloads.OUTCOMES.index(r.outcome) > workloads.OUTCOMES.index(expect[r.name])
        for r in records
    )
    for r in records:
        if r.outcome == "rejected":
            problems.append(f"{r.name}: the verifier rejected the certificate")
    for op in ops:
        seen = {(r.outcome, r.error, r.digest) for r in records if r.name == op.name}
        if len(seen) > 1:
            problems.append(f"{op.name}: results differ between passes: {sorted(map(str, seen))}")
    return not problems, failed, problems


def environment() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    units = {"certs_per_min": "1/min", "certs_per_wall_min": "1/min", "peak_rss_mb": "MB",
             "min_slack": "1", "gap_max": "1"}
    return units.get(metric.rsplit(".", 1)[-1], "count")


def declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metric_specs = declared("per_layer" if args.trace else "end_to_end")

    started = perf_counter()
    mdmvi, ops = load(args.workload, args.seed)
    record = {"args": vars(args), "environment": environment()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)

    if args.trace:
        tracer, records = trace(ops, mdmvi, started)
        metrics = tracer.metrics()
        metrics["mdmvt.rejected_attempts"] = sum(r.rejected_attempts for r in records[: len(ops)])
        plain = records[len(ops):]
        plain_s = sum(r.seconds for r in plain)
        metrics["trace.overhead_s"] = sum(r.seconds for r in records[: len(plain)]) - plain_s
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / plain_s
        tracer.write_spans(OUT / f"spans-{tag}.csv.gz")
    else:
        records, setup_times = measure(
            ops, mdmvi, args.seconds, lambda: setup_probe(args.workload, args.seed)
        )
        record["setup_times_s"] = setup_times  # (wall, reference) pairs
        metrics = summarize(ops, records)
        metrics["setup_s"] = statistics.median(ref for _, ref in setup_times)
        metrics["setup_wall_s"] = statistics.median(wall for wall, _ in setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct, failed, problems = check(ops, records)
    record.update(
        metrics=metrics,
        correct=correct,
        failed=failed,
        problems=problems,
        records=[asdict(r) for r in records],
    )
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    env = record["environment"]
    print(f"# mdmvi benchmark {tag}: {len(records)} ops, {len(ops)} per pass")
    print(f"# {env['cpu_model']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, commit {env['commit']}")
    for r in records[: len(ops)]:
        slack = "-" if r.min_slack is None else f"{r.min_slack:.6g}"
        print(f"  {r.name:26s} {r.outcome:9s} {r.error or '':24s} {r.seconds:8.3f} s  slack {slack}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    for name in sorted(metrics):
        print(f"{name:48s} {metrics[name]:.6g} {unit(name)}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in metric_specs
            if m["name"] in metrics  # a removed layer's metrics are absent
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
