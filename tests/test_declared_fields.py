"""Frozen classes carry no undeclared state: every
``object.__setattr__(self, "<name>", ...)`` in the package sets a field
that its class declares, so no private cache hangs off a frozen
dataclass."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mdmvi"


def undeclared_sets(source: str) -> list[str]:
    """``Class.name`` for each ``object.__setattr__(self, name, ...)`` in
    the body of a class that does not declare ``name`` as an annotated
    field; a name that is not a string literal is never declared."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        declared = {
            node.target.id
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        }
        for node in ast.walk(cls):
            if not (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "object.__setattr__"
                and node.args
                and ast.unparse(node.args[0]) == "self"
            ):
                continue
            name = node.args[1] if len(node.args) > 1 else None
            if not (isinstance(name, ast.Constant) and name.value in declared):
                found.append(f"{cls.name}.{ast.unparse(name) if name else '?'}")
    return found


def test_undeclared_sets_are_found():
    source = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\nclass Kept:\n    v: int\n    w: int = field(init=False)\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'v', 1)\n        object.__setattr__(self, 'w', 2)\n"
        "@dataclass(frozen=True)\nclass Cached:\n    v: int\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, '_cache', 1)\n        object.__setattr__(self, key, 2)\n"
        "        object.__setattr__(other, 'x', 3)\n"
    )
    assert undeclared_sets(source) == ["Cached.'_cache'", "Cached.key"]


def test_src_sets_only_declared_fields():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {f.name: undeclared_sets(f.read_text()) for f in files}
    assert {name: bad for name, bad in found.items() if bad} == {}
