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
    monkeypatch.setattr(check, "_sphere_net", lambda n, count: np.ones((4, n + 1)))
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
