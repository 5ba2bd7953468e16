"""The checker, ``mdmvi.check``, on its own: the modules it may import, the
names under which the benchmark finds it, and the arguments it refuses."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from mdmvi import check, mdmvt, oracles
from mdmvi.check import (
    Certificate,
    ProblemSpec,
    SpecFormatError,
    SpecInvariantError,
    verify_certificate,
)
from mdmvi.functions import f_eval, f_subgrad

ROOT = Path(__file__).resolve().parents[1]
CHECK = ROOT / "src" / "mdmvi" / "check.py"
TRUSTED = {"mdmvi.functions", "mdmvi.geometry"}  # besides the stdlib, numpy and __version__


def untrusted_imports(source: str) -> list[str]:
    """The modules that ``source``, a module of the mdmvi package, imports,
    at any depth of the code, beyond the stdlib, numpy, ``TRUSTED`` and the
    package's ``__version__``; ``from . import name`` imports
    ``mdmvi.name``."""

    def trusted(module: str) -> bool:
        top = module.split(".")[0]
        return top in sys.stdlib_module_names or top == "numpy" or module in TRUSTED

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if not trusted(alias.name)]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 1:
                found.append("." * node.level + (node.module or ""))
                continue
            module = node.module or ""
            if node.level == 1:
                module = f"mdmvi.{module}" if module else "mdmvi"
            if module == "mdmvi":
                found += [f"mdmvi.{a.name}" for a in node.names if a.name != "__version__"]
            elif not trusted(module):
                found.append(module)
    return found


def test_untrusted_imports_are_found_wherever_they_sit():
    source = (
        "from __future__ import annotations\nimport json\nimport numpy.linalg\n"
        "from . import __version__ as _version\nfrom .geometry import Hull\n"
        "from mdmvi.functions import f_eval\nfrom .oracles import grid_inf\n"
        "from . import supconv, __version__\nfrom ..other import x\nimport mdmvi.tent\n"
        "def f():\n    from .mdmvt import _lipschitz_estimate\n    import scipy\n"
    )
    assert sorted(untrusted_imports(source)) == [
        "..other", "mdmvi.mdmvt", "mdmvi.oracles", "mdmvi.supconv", "mdmvi.tent", "scipy"
    ]


def test_the_checker_imports_only_its_trust_base():
    assert untrusted_imports(CHECK.read_text()) == []


def test_the_benchmark_names_bind_the_checker():
    # the tracer wraps functions by identity in every mdmvi namespace, so
    # its mdmvt.verify_certificate and oracles.grid_inf layers count the
    # checker's own calls only while these are the very same objects
    assert mdmvt.verify_certificate is check.verify_certificate
    assert oracles.grid_inf is check.grid_inf


@pytest.mark.parametrize(
    "golden", sorted((ROOT / "tests" / "golden").glob("cert_*.json")), ids=lambda p: p.stem
)
def test_a_certificates_checks_are_the_checkers_statement(golden, problems_dir):
    # the search's checks are the checker's inequalities at the search's
    # own estimate of the infimum over [A,B]
    cert = Certificate.from_json_file(golden)
    ps = ProblemSpec.from_json_file(problems_dir / f"{golden.stem.removeprefix('cert_')}.json")
    inf_hull = cert.diagnostics["inf_estimates"]["inf_hull"]
    got = check.inequalities(ps, cert.params.r, f_eval(ps.f, cert.xi), cert.p, inf_hull)
    assert got == cert.checks


@pytest.fixture(scope="module")
def canonical(problems_dir):
    ps = ProblemSpec.from_json_file(problems_dir / "canonical_1d.json")
    cert = Certificate.from_json_file(ROOT / "tests" / "golden" / "cert_canonical_1d.json")
    return cert, ps


@pytest.mark.parametrize("resolution", [0, 1, -3])
def test_a_resolution_below_2_is_malformed_before_any_grid(canonical, monkeypatch, resolution):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(check, "grid_inf", no_grid)
    cert, ps = canonical
    with pytest.raises(SpecFormatError, match="resolution must be at least 2"):
        verify_certificate(cert, ps, resolution=resolution)


def test_a_defect_in_the_grid_oracle_is_not_called_a_broken_hypothesis(canonical, monkeypatch):
    # a direction net of the wrong width is the checker's own defect: its
    # error surfaces as it is
    cert, ps = canonical
    monkeypatch.setattr(check, "sphere_net", lambda n, count: np.ones((4, n + 1)))
    with pytest.raises(ValueError, match="matmul") as info:
        verify_certificate(cert, ps, resolution=101)
    assert not isinstance(info.value, SpecInvariantError)


def test_f_infinite_on_every_oracle_row_is_a_broken_hypothesis(canonical):
    cert, ps = canonical
    assert verify_certificate(cert, ps, resolution=101)[0]
    data = ps.to_json_dict()  # the domain [2, 3] misses A = {0}
    data["function"] = {
        "id": "restricted", "params": {"base": data["function"], "domain": [[2.0], [3.0]]}
    }
    with pytest.raises(SpecInvariantError, match="oracle inf over A: f is [+]inf"):
        verify_certificate(cert, ProblemSpec.from_json_dict(data), resolution=101)


def _with_stated(cert: Certificate, name: str, **fields) -> Certificate:
    """``cert`` with some fields of one stated inequality replaced."""
    data = cert.to_json_dict()
    data["checks"][name].update(fields)
    return Certificate.from_json_dict(data)


@pytest.mark.parametrize(
    "name, fields, differs",
    [
        ("value_localization", {"lhs": -5.0, "slack": 1e9}, ["lhs", "slack"]),
        ("value_localization", {"slack": 1e9}, ["slack"]),
        ("subgradient_norm", {"lhs": 0.5, "slack": 1.6}, ["lhs"]),
        ("subgradient_norm", {"rhs": 9.0, "slack": 8.0}, ["rhs"]),
        ("mean_value_increment", {"lhs": 0.1}, ["lhs", "slack"]),
        ("mean_value_increment", {"rhs": 1.0 + 1e-6}, ["rhs", "slack"]),
    ],
)
def test_a_stated_inequality_the_checker_does_not_recompute_fails(canonical, name, fields, differs):
    cert, ps = canonical
    valid, report = verify_certificate(_with_stated(cert, name, **fields), ps)
    assert not valid and not report[name]["ok"]
    stated = report[name]["stated"]
    assert stated["differs"] == differs
    assert all(stated[k] == v for k, v in fields.items())
    # the recomputed values are reported as before, and no other section moves
    honest = verify_certificate(cert, ps)[1]
    assert {k: v for k, v in report[name].items() if k not in ("ok", "stated")} == {
        k: v for k, v in honest[name].items() if k != "ok"
    }
    assert {k: v for k, v in report.items() if k not in (name, "valid")} == {
        k: v for k, v in honest.items() if k not in (name, "valid")
    }


def test_stated_values_agree_within_the_stated_tolerance(canonical):
    cert, ps = canonical
    lhs = cert.checks["mean_value_increment"].lhs  # 0.4 on canonical_1d
    near, far = lhs * (1 + check.STATED_TOL / 2), lhs * (1 + 4 * check.STATED_TOL)
    report = verify_certificate(_with_stated(cert, "mean_value_increment", lhs=near), ps)[1]
    assert report["mean_value_increment"]["ok"] and "stated" not in report["mean_value_increment"]
    report = verify_certificate(_with_stated(cert, "mean_value_increment", lhs=far), ps)[1]
    assert report["mean_value_increment"]["stated"]["differs"] == ["lhs", "slack"]


def test_an_honest_report_carries_no_stated_entry(canonical):
    valid, report = verify_certificate(*canonical)
    assert valid and not any("stated" in v for v in report.values() if isinstance(v, dict))


def _near_member(problems_dir) -> tuple[Certificate, ProblemSpec]:
    """quadratic_1d's certificate moved to xi = 0.38 - 2e-9, whose only
    subgradient is g = xi - 1.2, with p = g + 9e-9 and the checks
    restated at p: the increment holds at p (slack +7e-9), not at g."""
    ps = ProblemSpec.from_json_file(problems_dir / "quadratic_1d.json")
    cert = Certificate.from_json_file(ROOT / "tests" / "golden" / "cert_quadratic_1d.json")
    xi = np.array([0.38 - 2e-9])
    (g,) = f_subgrad(ps.f, xi)
    p = g + 9e-9
    inf_hull = cert.diagnostics["inf_estimates"]["inf_hull"]
    data = cert.to_json_dict()
    data.update(xi=xi.tolist(), p=p.tolist())
    data["checks"] = {
        k: v.to_json()
        for k, v in check.inequalities(ps, cert.params.r, f_eval(ps.f, xi), p, inf_hull).items()
    }
    return Certificate.from_json_dict(data), ps


def test_the_inequalities_are_tested_at_the_matched_representative(problems_dir):
    cert, ps = _near_member(problems_dir)
    assert cert.checks["mean_value_increment"].slack == pytest.approx(7e-9, rel=1e-3)
    valid, report = verify_certificate(cert, ps)
    # p is within the membership tolerance of g ...
    assert report["subgradient_membership"]["ok"]
    assert report["subgradient_membership"]["distance"] == pytest.approx(9e-9, rel=1e-6)
    # ... but the increment is false at g, and so is the certificate
    increment = report["mean_value_increment"]
    assert increment["slack"] == pytest.approx(-2e-9, rel=1e-3) and not increment["ok"]
    assert not valid


def test_an_honest_p_is_its_own_representative(problems_dir):
    # each bundled certificate's p is a representative bit for bit, so its
    # inequalities are recomputed where it states them
    for golden in sorted((ROOT / "tests" / "golden").glob("cert_*.json")):
        cert = Certificate.from_json_file(golden)
        ps = ProblemSpec.from_json_file(problems_dir / f"{golden.stem.removeprefix('cert_')}.json")
        assert any(np.array_equal(cert.p, g) for g in f_subgrad(ps.f, cert.xi)), golden.stem
