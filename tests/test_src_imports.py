"""The package imports only the standard library, numpy and itself: scipy,
mpmath and sympy may be installed where the tests run, but they are not
dependencies of mdmvi."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mdmvi"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mdmvi"}


def foreign_imports(source: str) -> list[str]:
    """The top-level names of the modules that ``source`` imports, at any
    depth of the code, that are neither stdlib, numpy nor mdmvi; relative
    imports are mdmvi's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_foreign_imports_are_found_wherever_they_sit():
    source = (
        "import numpy as np\nfrom . import geometry\nfrom collections import abc\n"
        "import scipy.optimize\n"
        "def f():\n    from mpmath import mp\n    import sympy, os\n"
    )
    assert foreign_imports(source) == ["scipy.optimize", "mpmath", "sympy"]


def test_src_imports_only_stdlib_numpy_and_itself():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {f.name: foreign_imports(f.read_text()) for f in files}
    assert {name: bad for name, bad in found.items() if bad} == {}


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, except those of
    ``__future__`` imports and of lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    names.append(alias.asname or alias.name.split(".")[0])
    return [name for name in names if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\nimport numpy as np\nimport os.path\n"
        "from .geometry import (\n    Hull,\n    box_axes,\n)\n"
        "from .check import run  # noqa: F401\n"
        "def f(x: Hull):\n    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "box_axes"]


def test_src_reads_every_name_it_imports():
    files = [f for f in sorted(SRC.rglob("*.py")) if f.name != "__init__.py"]
    assert files
    found = {f.name: unused_imports(f.read_text()) for f in files}
    assert {name: unused for name, unused in found.items() if unused} == {}
