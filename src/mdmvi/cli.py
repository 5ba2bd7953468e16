"""Batch command-line front end.

Subcommands: ``certificate`` (run the pipeline, verify, write JSON),
``verify`` (independent recheck only), ``eval-psi`` / ``eval-phi`` (CSV
sample dumps), and ``selftest`` (invariant battery over bundled
problems).  Exit codes: 0 success/valid; 1 invalid certificate, failed
selftest, or a run that ends in a typed error (no certificate found,
uncertified smoothing value, failed descent); 2 malformed spec or
arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .check import (
    Certificate,
    ProblemSpec,
    SpecFormatError,
    SpecInvariantError,
    check_grid_rows,
    verify_certificate,
)
from .mdmvt import CertificateSearchError, choose_params, run
from .ekeland import DescentError
from .supconv import PhiEvalError, SupConvSpec, phi_on_grid, sample_table
from .tent import TentSpec, psi_on_grid
from .geometry import sample_set


def _load_spec(path: str, args) -> ProblemSpec:
    ps = ProblemSpec.from_json_file(path)
    overrides = {}
    if getattr(args, "resolution", None) is not None:
        overrides["resolution"] = args.resolution
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        data = ps.to_json_dict()
        data.update(overrides)
        ps = ProblemSpec.from_json_dict(data)
    return ps


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _failed_checks(report: dict) -> list[str]:
    """The names of the verify report's sections that failed."""
    return [k for k, v in report.items() if isinstance(v, dict) and not v["ok"]]


def _cmd_certificate(args) -> int:
    ps = _load_spec(args.spec, args)
    cert = run(ps)
    valid, report = verify_certificate(cert, ps)
    out = Path(args.out) if args.out else Path(args.spec).with_suffix(".certificate.json")
    _write_json(out, cert.to_json_dict())
    print(f"certificate written to {out}")
    for name in ("value_localization", "subgradient_norm", "mean_value_increment"):
        chk = cert.checks[name]
        print(f"  {name}: lhs={chk.lhs:.6g} rhs={chk.rhs:.6g} slack={chk.slack:.6g}")
    if not valid:
        print(f"verification FAILED: {', '.join(_failed_checks(report))}", file=sys.stderr)
        return 1
    print("independent verification passed")
    return 0


def _cmd_verify(args) -> int:
    cert = Certificate.from_json_file(args.certificate)
    ps = _load_spec(args.spec, args)
    valid, report = verify_certificate(cert, ps, resolution=args.resolution)
    for name, section in report.items():
        if not isinstance(section, dict):
            continue
        status = "ok" if section["ok"] else "FAIL"
        detail = {k: v for k, v in section.items() if k != "ok"}
        print(f"  {status} {name}: {json.dumps(detail, sort_keys=True, default=float)}")
    if not valid:
        print("certificate INVALID", file=sys.stderr)
        return 1
    print("certificate valid")
    return 0


def _build_supconv(ps: ProblemSpec) -> SupConvSpec:
    params = choose_params(ps)
    return SupConvSpec(TentSpec(ps.A, ps.B, params.r, params.s1), params.K)


def _cmd_eval(args, inflate: bool) -> int:
    ps = _load_spec(args.spec, args)
    check_grid_rows(args.grid, ps.A.dim, "grid")
    sc = _build_supconv(ps)
    delta = ps.delta if inflate else 0.0
    pts = sample_set(ps.A, ps.B, delta, args.grid)
    table = sample_table(sc, pts)
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(ps.A.dim)] + ["phi", "psi"])
        for row in table:
            writer.writerow([repr(float(v)) for v in row])
    print(f"wrote {len(table)} rows to {out}")
    return 0


def bundled_problems() -> list[str]:
    root = resources.files("mdmvi").joinpath("problems")
    return sorted(str(p) for p in root.iterdir() if p.name.endswith(".json"))


# the typed errors of a run, which exit 1; SpecFormatError exits 2
_RUN_ERRORS = (SpecInvariantError, CertificateSearchError, PhiEvalError, DescentError)


def _selftest_problem(path: str, args, failures: list[str]) -> None:
    """Append to ``failures`` what the invariant battery finds on one
    problem; a typed error of a stage (``_RUN_ERRORS``) ends it early."""
    from .oracles import psi_brute

    ps = _load_spec(path, args)
    sc = _build_supconv(ps)
    t = sc.tent

    hull = sample_set(ps.A, ps.B, 0.0, 21)
    rng = np.random.default_rng(ps.seed)
    idx = rng.choice(len(hull), size=min(30, len(hull)), replace=False)
    brute_res = 100_000 if ps.A.dim == 1 else 1_000
    tol = 1e-4 if ps.A.dim == 1 else 5e-3
    psis = psi_on_grid(t, hull[idx])
    for z, v in zip(hull[idx], psis):
        bv = psi_brute(z, t, brute_res)
        if np.isfinite(v) != np.isfinite(bv) or (np.isfinite(v) and abs(v - bv) > tol):
            failures.append(f"tent oracle mismatch at {z.tolist()}: {v} vs {bv}")

    lo = hull.min(axis=0) - ps.delta
    hi = hull.max(axis=0) + ps.delta
    pts = lo + (hi - lo) * rng.random((200, ps.A.dim))
    vals = phi_on_grid(sc, pts)
    for _ in range(200):
        i, j = rng.integers(0, len(pts), size=2)
        lip = abs(vals[i] - vals[j]) - sc.K * np.linalg.norm(pts[i] - pts[j])
        if lip > 1e-6:
            failures.append(f"Lipschitz violation {lip:.3e}")
            break
    mids = 0.5 * (pts[::2][: len(pts) // 2] + pts[1::2][: len(pts) // 2])
    mvals = phi_on_grid(sc, mids)
    conc = 0.5 * (vals[::2][: len(mids)] + vals[1::2][: len(mids)]) - mvals
    if np.max(conc) > 1e-6:
        failures.append(f"concavity violation {np.max(conc):.3e}")

    cert = run(ps)
    valid, report = verify_certificate(cert, ps)
    if not valid:
        failures.append(f"certificate invalid: {_failed_checks(report)}")
    if cert.diagnostics["boundary_margin"] <= 0:
        failures.append("boundary decay margin not positive")


def _cmd_selftest(args) -> int:
    paths = args.problems or bundled_problems()
    any_fail = False
    for path in paths:
        failures = []
        try:
            _selftest_problem(path, args, failures)
        except _RUN_ERRORS as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
        name = Path(path).stem
        if failures:
            any_fail = True
            print(f"FAIL {name}")
            for msg in failures:
                print(f"     {msg}", file=sys.stderr)
        else:
            print(f"ok   {name}")
    return 1 if any_fail else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdmvi",
        description="certificates for a multidirectional mean value inequality",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certificate", help="run the pipeline and verify")
    p_cert.add_argument("spec")
    p_cert.add_argument("--out")
    p_cert.add_argument("--resolution", type=int)
    p_cert.add_argument("--seed", type=int)

    p_ver = sub.add_parser("verify", help="independent certificate recheck")
    p_ver.add_argument("certificate")
    p_ver.add_argument("spec")
    p_ver.add_argument("--resolution", type=int)

    for name in ("eval-psi", "eval-phi"):
        p_eval = sub.add_parser(name, help="CSV dump of tent/smoothing samples")
        p_eval.add_argument("spec")
        p_eval.add_argument("--grid", type=int, default=101)
        p_eval.add_argument("--out", required=True)
        p_eval.add_argument("--resolution", type=int)
        p_eval.add_argument("--seed", type=int)

    p_self = sub.add_parser("selftest", help="invariant battery on bundled problems")
    p_self.add_argument("problems", nargs="*")
    p_self.add_argument("--resolution", type=int)

    return parser


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "certificate":
            return _cmd_certificate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eval-psi":
            return _cmd_eval(args, inflate=False)
        if args.command == "eval-phi":
            return _cmd_eval(args, inflate=True)
        if args.command == "selftest":
            return _cmd_selftest(args)
    except (SpecFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpecInvariantError, CertificateSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PhiEvalError, DescentError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 2


def main() -> None:
    sys.exit(run_command())
