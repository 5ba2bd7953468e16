"""The benchmark's per-layer contract: every ``<module>.<function>.<stat>``
metric that BENCHMARK.json declares names a function of ``mdmvi`` that the
tracer (benchmarks/tracer.py) can wrap, and the results its observers read
keep their fields.  A layer the tracer cannot find drops its metrics from
the traced result line."""

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def declared_layers() -> list[tuple[str, str]]:
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return sorted({tuple(n.split(".")[:2]) for n in names if n.count(".") == 2})


def test_the_contract_names_layers():
    assert ("supconv", "phi_eval") in declared_layers()
    assert ("simplex_optim", "maximize_concave") in declared_layers()


@pytest.mark.parametrize("module,function", declared_layers())
def test_declared_layer_is_a_function(module, function):
    fn = getattr(importlib.import_module(f"mdmvi.{module}"), function, None)
    assert callable(fn), f"mdmvi.{module}.{function} is gone; its metrics would drop"


def test_observed_results_keep_their_fields():
    """The tracer's observers read PhiValue.gap, DistResult.d and
    FWResult.iterations."""
    from mdmvi.geometry import DistResult
    from mdmvi.simplex_optim import FWResult
    from mdmvi.supconv import PhiValue

    assert "gap" in {f.name for f in dataclasses.fields(PhiValue)}
    assert "iterations" in {f.name for f in dataclasses.fields(FWResult)}
    assert "d" in DistResult._fields
