"""Package layout: the modules of holeburn share only public names."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "holeburn"


def private_imports(source):
    """Underscore names that ``source`` imports from a module of holeburn,
    as "module.name" strings (a relative module keeps its leading dots)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and node.module.split(".")[0] != "holeburn":
            continue
        module = "." * node.level + (f"{node.module}." if node.module else "")
        found += [module + alias.name for alias in node.names
                  if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("source, expected", [
    ("from .storage import _METHODS, retrieve", [".storage._METHODS"]),
    ("from holeburn.medium import (HoleProfile,\n    _quad)",
     ["holeburn.medium._quad"]),
    ("from . import _private", ["._private"]),
    ("def f():\n    from .medium import _quad", [".medium._quad"]),
    ("from .storage import METHODS, retrieve", []),
    ("from functools import _lru_cache_wrapper", []),
    ("from __future__ import annotations", []),
])
def test_private_imports_found(source, expected):
    assert private_imports(source) == expected


def test_no_private_imports_across_modules():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8
    found = {path.name: private_imports(path.read_text())
             for path in paths}
    assert {name: names for name, names in found.items() if names} == {}
