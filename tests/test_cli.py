import csv
import json
import shutil
from pathlib import Path

import pytest

from mdmvi.cli import bundled_problems, run_command

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def workdir(tmp_path, problems_dir, monkeypatch):
    shutil.copy(problems_dir / "canonical_1d.json", tmp_path / "canonical_1d.json")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_bundled_problems_present():
    names = {Path(p).stem for p in bundled_problems()}
    assert "canonical_1d" in names and "plane_2d" in names
    assert len(names) >= 5


class TestCertificateCommand:
    def test_writes_valid_certificate(self, workdir, capsys):
        rc = run_command(["certificate", "canonical_1d.json"])
        assert rc == 0
        out = workdir / "canonical_1d.certificate.json"
        data = json.loads(out.read_text())
        assert set(data) == {
            "version",
            "xi",
            "p",
            "params",
            "checks",
            "diagnostics",
            "tolerances",
        }
        assert data["p"] == [1.0]
        for chk in data["checks"].values():
            assert chk["slack"] > 0
        assert "verification passed" in capsys.readouterr().out

    def test_custom_out_schedule_and_trace(self, workdir, monkeypatch):
        rc = run_command(["certificate", "canonical_1d.json", "--out", "cert.json"])
        assert rc == 0
        assert (workdir / "cert.json").exists()

        # one Ekeland point, one pair search: no schedule to set, no trace,
        # and no smoothing tolerance to set
        import mdmvi.cli as cli

        monkeypatch.setattr(cli, "run", None)
        for extra in (["--schedule", "0.1,0.01"], ["--trace", "trace.csv"], ["--tol", "1e-8"]):
            assert run_command(["certificate", "canonical_1d.json"] + extra) == 2
        assert not (workdir / "trace.csv").exists()

    def test_deterministic_bytes(self, workdir):
        run_command(["certificate", "canonical_1d.json", "--out", "a.json"])
        run_command(["certificate", "canonical_1d.json", "--out", "b.json"])
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_malformed_spec_exits_2(self, workdir):
        (workdir / "bad.json").write_text("{not json")
        assert run_command(["certificate", "bad.json"]) == 2
        (workdir / "empty.json").write_text("{}")
        assert run_command(["certificate", "empty.json"]) == 2

    def test_missing_file_exits_2(self, workdir):
        assert run_command(["certificate", "nope.json"]) == 2


class TestVerifyCommand:
    def test_roundtrip(self, workdir):
        run_command(["certificate", "canonical_1d.json", "--out", "cert.json"])
        assert run_command(["verify", "cert.json", "canonical_1d.json"]) == 0

    def test_tampered_slope_fails(self, workdir, capsys):
        run_command(["certificate", "canonical_1d.json", "--out", "cert.json"])
        data = json.loads((workdir / "cert.json").read_text())
        data["p"] = [-1.0]
        (workdir / "cert.json").write_text(json.dumps(data))
        rc = run_command(["verify", "cert.json", "canonical_1d.json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "mean_value_increment" in captured.out
        assert "INVALID" in captured.err

    @pytest.mark.parametrize(
        "field, value",
        [("xi", [0.1, 0.2]), ("p", [1.0, 0.0, 0.0]), ("xi", [float("nan")]),
         ("p", [float("inf")]), ("xi", ["a"]), ("xi", [[0.1]]), ("xi", ["0.1"]),
         ("p", [True]), ("params", {"r": "0.0", "s1": 0.0, "delta1": 0.5, "K": 1.0})],
    )
    def test_malformed_certificate_exits_2(self, workdir, capsys, field, value):
        run_command(["certificate", "canonical_1d.json", "--out", "cert.json"])
        data = json.loads((workdir / "cert.json").read_text())
        data[field] = value
        (workdir / "cert.json").write_text(json.dumps(data))
        assert run_command(["verify", "cert.json", "canonical_1d.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_f_infinite_on_every_oracle_row_exits_1(self, workdir, capsys, problems_dir):
        # the domain [2, 3] misses A = {0} and [A,B] = [0, 1]
        data = json.loads((problems_dir / "restricted_quadratic_1d.json").read_text())
        data["function"]["params"]["domain"] = [[2.0], [3.0]]
        (workdir / "spec.json").write_text(json.dumps(data))
        cert = ROOT / "benchmarks" / "fixtures" / "restricted_quadratic_1d.cert.json"
        assert run_command(["verify", str(cert), "spec.json"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "inf over A" in err[0]


class TestEvalCommands:
    def test_eval_psi_anchors(self, workdir):
        rc = run_command(
            ["eval-psi", "canonical_1d.json", "--grid", "101", "--out", "psi.csv"]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(workdir / "psi.csv")))
        assert len(rows) == 101
        by_x = {float(r["x0"]): float(r["psi"]) for r in rows}
        assert by_x[0.0] == pytest.approx(0.0, abs=1e-9)  # level r at the A anchor
        assert by_x[1.0] == pytest.approx(0.425, abs=1e-9)  # level s1 at the B anchor

    def test_eval_phi_covers_inflation(self, workdir):
        rc = run_command(
            ["eval-phi", "canonical_1d.json", "--grid", "51", "--out", "phi.csv"]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(workdir / "phi.csv")))
        xs = [float(r["x0"]) for r in rows]
        assert min(xs) == pytest.approx(-0.5) and max(xs) == pytest.approx(1.5)
        for r in rows:
            if r["psi"] != "-inf":
                assert float(r["phi"]) >= float(r["psi"]) - 1e-8


def test_selftest_canonical(workdir, capsys):
    rc = run_command(["selftest", "canonical_1d.json", "--resolution", "101"])
    assert rc == 0
    assert "ok   canonical_1d" in capsys.readouterr().out


def test_selftest_reports_a_typed_failure_and_goes_on(workdir, capsys, problems_dir):
    # s = 100 lies above every value of f over the inflated B
    data = json.loads((problems_dir / "quadratic_1d.json").read_text())
    (workdir / "quadratic_1d.json").write_text(json.dumps(dict(data, s=100.0)))
    shutil.copy(problems_dir / "l2_norm_1d.json", workdir / "l2_norm_1d.json")
    argv = ["selftest", "canonical_1d.json", "quadratic_1d.json", "l2_norm_1d.json"]
    assert run_command(argv + ["--resolution", "101"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["ok   canonical_1d", "FAIL quadratic_1d", "ok   l2_norm_1d"]
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].strip().startswith("SpecInvariantError: s must lie strictly")


def test_bad_subcommand_exits_2(capsys):
    assert run_command(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "error",
    [
        "mdmvi.supconv.PhiEvalError",
        "mdmvi.ekeland.DescentError",
        "mdmvi.mdmvt.CertificateSearchError",
    ],
)
def test_typed_run_errors_exit_1(workdir, capsys, monkeypatch, error):
    """A run that ends in a typed error prints one error line, no traceback."""
    import importlib

    import mdmvi.cli as cli

    module, name = error.rsplit(".", 1)
    exc_type = getattr(importlib.import_module(module), name)

    def failing_run(*args, **kwargs):
        raise exc_type("stage: could not go on at [0.5]")

    monkeypatch.setattr(cli, "run", failing_run)
    assert run_command(["certificate", "canonical_1d.json"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "could not go on" in err[0]


@pytest.mark.parametrize("field", ["delta", "mu", "s", "epsilon"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_spec_numbers_exit_2(workdir, capsys, field, value):
    data = json.loads((workdir / "canonical_1d.json").read_text())
    data[field] = value
    (workdir / "bad.json").write_text(json.dumps(data))
    assert run_command(["certificate", "bad.json"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]


def test_negative_spec_seed_exits_2(workdir, capsys, monkeypatch):
    # the --seed -1 override is a row of test_bad_arguments_exit_2_before_the_pipeline;
    # a seed or resolution that is not a JSON integer is refused, not truncated,
    # and a number field or vertex entry that is not a JSON number, not converted
    import mdmvi.cli as cli

    monkeypatch.setattr(cli, "run", None)
    data = json.loads((workdir / "canonical_1d.json").read_text())
    bad = [("seed", -1)] + [(k, v) for k in ("seed", "resolution") for v in (1.5, True, "7")]
    bad += [("delta", "0.5"), ("mu", True), ("s", None), ("epsilon", "1e-3")]
    bad += [("A", [["0"]]), ("B", [[True]]), ("A", [[0.0, "1"]])]
    for field, value in bad:
        (workdir / "bad.json").write_text(json.dumps(dict(data, **{field: value})))
        assert run_command(["certificate", "bad.json"]) == 2, (field, value)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
    # so is a catalog parameter, the domain of a restricted member included
    base = data["function"]
    bad = [dict(base["params"], **{k: v}) for k, v in (("a", ["1"]), ("b", True), ("a", [True]))]
    functions = [dict(base, params=params) for params in bad]
    functions.append({"id": "restricted", "params": {"base": base, "domain": [["0"], [True]]}})
    for function, param in zip(functions, ("a", "b", "a", "domain")):
        (workdir / "bad.json").write_text(json.dumps(dict(data, function=function)))
        assert run_command(["certificate", "bad.json"]) == 2, function
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{param} must hold JSON numbers" in err[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["certificate", "canonical_1d.json", "--seed", "-1"],
        ["eval-phi", "canonical_1d.json", "--seed", "-1", "--out", "phi.csv"],
        ["certificate", "canonical_1d.json", "--resolution", "1"],
        ["eval-psi", "canonical_1d.json", "--grid", "1", "--out", "psi.csv"],
        ["eval-phi", "canonical_1d.json", "--grid", "0", "--out", "phi.csv"],
    ],
)
def test_bad_arguments_exit_2_before_the_pipeline(workdir, capsys, monkeypatch, argv):
    import mdmvi.cli as cli

    def no_pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli, "run", no_pipeline)
    monkeypatch.setattr(cli, "choose_params", no_pipeline)
    assert run_command(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# linear f in 4-D, A = {0}, B = {2 e1}: the dimension is refused before any work
SPEC_4D = {
    "function": {"id": "linear", "params": {"a": [1.0, 0.0, 0.0, 0.0], "b": 0.0}},
    "A": [[0.0, 0.0, 0.0, 0.0]],
    "B": [[2.0, 0.0, 0.0, 0.0]],
    "delta": 0.5,
    "mu": -1.0,
    "s": 0.9,
    "epsilon": 0.1,
    "resolution": 7,
}


@pytest.mark.parametrize(
    "argv",
    [
        ["certificate", "spec4d.json"],
        ["verify", "cert.json", "spec4d.json"],
        ["selftest", "spec4d.json"],
        ["eval-psi", "spec4d.json", "--out", "psi.csv"],
        ["eval-phi", "spec4d.json", "--out", "phi.csv"],
    ],
)
def test_four_dimensional_spec_exits_2(workdir, capsys, argv):
    (workdir / "spec4d.json").write_text(json.dumps(SPEC_4D))
    cert = json.loads((ROOT / "benchmarks" / "fixtures" / "plane_2d.cert.json").read_text())
    cert.update(xi=[1.0, 0.0, 0.0, 0.0], p=[1.0, 0.0, 0.0, 0.0])
    (workdir / "cert.json").write_text(json.dumps(cert))
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "at most 3" in err[0]
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["certificate", "big.json"],
        ["certificate", "plane_2d.json", "--resolution", "100000"],
        ["verify", "cert.json", "plane_2d.json", "--resolution", "100000"],
        ["selftest", "plane_2d.json", "--resolution", "100000"],
        ["eval-psi", "plane_2d.json", "--grid", "100000", "--out", "psi.csv"],
        ["eval-phi", "plane_2d.json", "--grid", "100000", "--out", "phi.csv"],
    ],
)
def test_grid_over_the_row_budget_exits_2_before_any_array(
    workdir, capsys, monkeypatch, problems_dir, argv
):
    import numpy as np

    import mdmvi.cli as cli

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    for name in ("run", "choose_params", "verify_certificate", "sample_set"):
        monkeypatch.setattr(cli, name, no_grid)
    monkeypatch.setattr(np, "linspace", no_grid)
    monkeypatch.setattr(np, "meshgrid", no_grid)
    data = json.loads((problems_dir / "plane_2d.json").read_text())
    (workdir / "plane_2d.json").write_text(json.dumps(data))
    (workdir / "big.json").write_text(json.dumps(dict(data, resolution=100_000)))
    shutil.copy(ROOT / "benchmarks" / "fixtures" / "plane_2d.cert.json", workdir / "cert.json")
    assert run_command(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "grid rows" in err[0]
