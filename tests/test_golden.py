"""The certificates of the bundled problems, byte for byte.

``tests/golden/cert_<name>.json`` holds each certificate as ``run`` wrote
it (JSON with sorted keys, as ``scripts/run_suite.py`` writes it).  A
change that keeps the pipeline's results must reproduce every byte.
"""

import json
from pathlib import Path

import pytest

from test_descent import BUNDLED

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", BUNDLED)
def test_run_reproduces_the_golden_certificate(name, suite_results):
    cert = suite_results[name]["cert"]
    text = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / f"cert_{name}.json").read_text()


@pytest.mark.parametrize("name", BUNDLED)
def test_recorded_tolerances_are_the_checks_constants(name, problems_dir):
    from mdmvi import ProblemSpec
    from mdmvi.ekeland import EVP_TOL, RESIDUAL_FACTOR
    from mdmvi.mdmvt import INTERIOR_TOL
    from mdmvi.supconv import GAP_TOL

    golden = json.loads((GOLDEN / f"cert_{name}.json").read_text())
    assert golden["tolerances"] == {
        "interior_tol": INTERIOR_TOL,
        "evp_tol": EVP_TOL,
        "residual_factor": RESIDUAL_FACTOR,
        "grid_resolution": ProblemSpec.from_json_file(problems_dir / f"{name}.json").resolution,
        "smoothing_gap_tol": GAP_TOL,
    }
