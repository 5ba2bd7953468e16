"""The benchmark's own checks.

    python3 -m pytest -q benchmarks/test_bench.py

Two traced passes with the same seed must give identical per-layer call
counts, outcomes and digests; that is what lets a later change cite the
counts as counts.  The passes use the cheapest operation of each workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

CHEAP = {"line-1d": "max_affine_1d", "hull-nd": "multivertex_2d", "verify-dense": "restricted_quadratic_1d"}


def traced_pass(seed):
    calls, results = {}, []
    for workload, name in CHEAP.items():
        mdmvi, ops = run.load(workload, seed)
        tracer = Tracer()
        tracer.install()
        try:
            for i, op in enumerate(o for o in ops if o.name == name):
                tracer.begin_op(i)
                r = run.execute(op, mdmvi)
                results.append((r.name, r.outcome, r.error, r.digest))
        finally:
            tracer.uninstall()
        calls[workload] = {k: v for k, v in tracer.metrics().items() if k.endswith(".calls")}
    return calls, results


def test_traced_passes_repeat_exactly():
    first, second = traced_pass(7), traced_pass(7)
    assert first == second
    calls, results = first
    assert calls["line-1d"]["mdmvt.run.calls"] == 1
    assert calls["verify-dense"]["supconv.phi_eval.calls"] == 0
    assert [r[1] for r in results] == ["certified", "crash", "certified"]


def test_result_line_follows_the_declared_metrics():
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify-dense",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in declared]


def test_declared_units_match_the_printed_ones():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert run.unit(m["name"]) == m["unit"], m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "line-1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pace_excludes_its_samples_and_restores_the_timer():
    import signal
    from time import perf_counter

    import pace

    old = signal.getsignal(signal.SIGALRM)
    t0 = perf_counter()
    with pace.Pace() as p:
        while perf_counter() - t0 < 0.5:
            pass
    elapsed = perf_counter() - t0
    assert 0.8 * elapsed < p.wall_s < elapsed
    assert p.ref_s > 0.0
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
