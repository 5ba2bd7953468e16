"""The certificates of the bundled problems and the verifier's reports on
the benchmark fixtures, byte for byte.

``tests/golden/cert_<name>.json`` holds each certificate as ``run`` wrote
it (JSON with sorted keys, as ``scripts/run_suite.py`` writes it), and
``tests/golden/verify_<name>_r<resolution>`` the report of
``verify_certificate`` on ``benchmarks/fixtures/<name>.cert.json`` (``.json``)
and the output of ``mdmvi verify`` (``.txt``).
``tests/golden/stress_circle8_2d.cert.json`` is the certificate of
``tests/specs/circle8_2d.json``, a hull of 16 vertices, and
``tests/golden/stress_sphere8_3d.cert.json`` that of
``tests/specs/sphere8_3d.json``, 8 points per side on a sphere in 3-D.
``tests/golden/eval_phi_<name>_g11.csv`` is the output of ``mdmvi eval-phi
--grid 11`` on ``plane_2d`` and on ``sphere8_3d``: x, phi and psi on the
inflated hull's grid, so psi is pinned on its own and not only through the
certificates' level-set separation.  A change that keeps the pipeline's
and the verifier's results must reproduce every byte.
"""

import json
from pathlib import Path

import pytest

from test_descent import BUNDLED

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "fixtures"
SPECS = Path(__file__).resolve().parent / "specs"


@pytest.mark.parametrize("name", BUNDLED)
def test_run_reproduces_the_golden_certificate(name, suite_results):
    cert = suite_results[name]["cert"]
    text = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / f"cert_{name}.json").read_text()


def test_run_reproduces_the_many_vertex_certificate():
    from mdmvi import ProblemSpec, run

    cert = run(ProblemSpec.from_json_file(SPECS / "circle8_2d.json"))
    text = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / "stress_circle8_2d.cert.json").read_text()


def test_run_reproduces_the_many_vertex_certificate_in_3d():
    from mdmvi import ProblemSpec, run

    cert = run(ProblemSpec.from_json_file(SPECS / "sphere8_3d.json"))
    text = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / "stress_sphere8_3d.cert.json").read_text()


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


@pytest.mark.parametrize("name, resolution", [("plane_2d", 301), ("restricted_quadratic_1d", 8001)])
def test_verify_reproduces_the_golden_report(name, resolution, problems_dir, capsys):
    from mdmvi import Certificate, ProblemSpec, verify_certificate
    from mdmvi.cli import run_command

    spec, cert = problems_dir / f"{name}.json", FIXTURES / f"{name}.cert.json"
    report = verify_certificate(
        Certificate.from_json_file(cert), ProblemSpec.from_json_file(spec), resolution
    )[1]
    golden = GOLDEN / f"verify_{name}_r{resolution}"
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    assert text == golden.with_suffix(".json").read_text()
    assert run_command(["verify", str(cert), str(spec), "--resolution", str(resolution)]) == 0
    assert capsys.readouterr().out == golden.with_suffix(".txt").read_text()


@pytest.mark.parametrize(
    "spec",
    [Path(__file__).resolve().parents[1] / "src" / "mdmvi" / "problems" / "plane_2d.json",
     SPECS / "sphere8_3d.json"],
    ids=lambda p: p.stem,
)
def test_eval_phi_reproduces_the_golden_samples(spec, tmp_path):
    from mdmvi.cli import run_command

    out = tmp_path / "samples.csv"
    assert run_command(["eval-phi", str(spec), "--grid", "11", "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / f"eval_phi_{spec.stem}_g11.csv").read_text()
