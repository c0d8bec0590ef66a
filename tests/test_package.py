"""Package layout: the modules of holeburn share only public names, and
raise only the exception classes of ``holeburn.errors``."""

import argparse
import ast
import dataclasses
import pathlib

import pytest

from holeburn import cli

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


def scipy_imports(source):
    """The scipy modules that ``source`` imports, as dotted names: a name
    taken from ``scipy`` itself counts as the submodule it names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names
                      if alias.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "scipy":
                found |= {f"scipy.{alias.name}" for alias in node.names}
            elif node.module.split(".")[0] == "scipy":
                found.add(node.module)
    return found


def polynomial_imports(source):
    """What ``source`` takes from numpy.polynomial, as dotted names: each
    name imported from it or from one of its submodules, each import of
    it, and each attribute path that reaches it (``np.polynomial``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names
                      if alias.name.split(".")[:2] == ["numpy", "polynomial"]}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[:2] == ["numpy", "polynomial"]:
                found |= {f"{node.module}.{alias.name}"
                          for alias in node.names}
            elif node.module == "numpy":
                found |= {"numpy.polynomial" for alias in node.names
                          if alias.name == "polynomial"}
        elif isinstance(node, ast.Attribute) and node.attr == "polynomial":
            found.add(ast.unparse(node))
    return found


def package_errors():
    """Names of the exception classes that holeburn.errors defines."""
    tree = ast.parse((SRC / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def foreign_raises(source, allowed):
    """Line and class name of each ``raise C`` or ``raise C(...)`` in
    ``source`` whose class C is not in ``allowed``.  A bare ``raise`` and
    an exception object raised again (``raise caught[0]``) are re-raises
    and pass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = (exc.id if isinstance(exc, ast.Name) else
                exc.attr if isinstance(exc, ast.Attribute) else None)
        if isinstance(node.exc, ast.Call) or (name and name[0].isupper()):
            if name not in allowed:
                found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("source, expected", [
    ("raise ValueError('x')", [(1, "ValueError")]),
    ("raise TypeError", [(1, "TypeError")]),
    ("raise builtins.KeyError('x') from None", [(1, "KeyError")]),
    ("raise DomainError('x')", []),
    ("raise ConfigurationError", []),
    ("try:\n    f()\nexcept ValueError:\n    raise", []),
    ("raise caught[0]", []),
])
def test_foreign_raises_found(source, expected):
    assert foreign_raises(source, {"DomainError", "ConfigurationError"}) \
        == expected


def test_every_refusal_is_a_package_error():
    # the CLI maps package errors to exit codes; any other class would
    # leave it as a traceback
    allowed = package_errors()
    assert {"ConfigurationError", "DomainError", "NumericsError"} <= allowed
    found = {path.name: foreign_raises(path.read_text(), allowed)
             for path in sorted(SRC.glob("*.py"))}
    assert {name: raises for name, raises in found.items() if raises} == {}


def caught_in(source, function):
    """Class names in the ``except`` clauses of ``function`` in ``source``."""
    tree = ast.parse(source)
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            names |= {t.id for t in types if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("source, expected", [
    ("def main():\n    try:\n        f()\n    except (A, b.C):\n        pass"
     "\n    except D as exc:\n        pass", {"A", "D"}),
    ("def main():\n    try:\n        f()\n    except:\n        pass\n"
     "def g():\n    try:\n        f()\n    except E:\n        pass", set()),
])
def test_caught_in_found(source, expected):
    assert caught_in(source, "main") == expected


def test_every_package_error_has_an_exit_code():
    # cli.main maps each class it catches to exit 2 or 3; a package error
    # it does not catch would end the run in a traceback
    assert package_errors() <= caught_in((SRC / "cli.py").read_text(), "main")


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


@pytest.mark.parametrize("source, expected", [
    ("from scipy import integrate", {"scipy.integrate"}),
    ("def f():\n    from scipy.interpolate import CubicSpline",
     {"scipy.interpolate"}),
    ("import scipy.special as sc\nimport scipy", {"scipy.special", "scipy"}),
    ("from scipy import special, optimize",
     {"scipy.special", "scipy.optimize"}),
    ("import numpy as np\nfrom .special import erfcx", set()),
])
def test_scipy_imports_found(source, expected):
    assert scipy_imports(source) == expected


def test_scipy_imports_stay_in_their_modules():
    # special wraps scipy.special and medium's one adaptive quadrature
    # wraps scipy.integrate; any other scipy import (a spline from
    # scipy.interpolate, say) would be a new dependency
    found = {path.name: scipy_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: mods for name, mods in found.items() if mods} == {
        "special.py": {"scipy.special"}, "medium.py": {"scipy.integrate"}}


@pytest.mark.parametrize("source, expected", [
    ("from numpy.polynomial.legendre import leggauss",
     {"numpy.polynomial.legendre.leggauss"}),
    ("from numpy.polynomial import Chebyshev",
     {"numpy.polynomial.Chebyshev"}),
    ("import numpy.polynomial.chebyshev as C",
     {"numpy.polynomial.chebyshev"}),
    ("from numpy import polynomial", {"numpy.polynomial"}),
    ("c = np.polynomial.chebyshev.chebfit(x, y, 8)", {"np.polynomial"}),
    ("import numpy as np\nfrom numpy.linalg import solve", set()),
])
def test_polynomial_imports_found(source, expected):
    assert polynomial_imports(source) == expected


def test_numpy_polynomial_is_leggauss_only():
    # storage builds its Gauss-Legendre rules with numpy's leggauss; the
    # memory weight is explicit, so no module fits or integrates a
    # polynomial series of it (a Chebyshev interpolant, say)
    found = {path.name: polynomial_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {
        "storage.py": {"numpy.polynomial.legendre.leggauss"}}


def run_flags():
    """The flags of the run subcommands, those named after the kinds."""
    parser = cli._build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {flag for kind in cli._KINDS
            for action in sub.choices[kind]._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings}


def test_read_table_matches_fields_and_flags():
    # the table of inputs that only some kinds read names Scenario fields
    # and run flags, and every run flag but the two each run needs
    table = set(cli._READ_BY)
    flags = run_flags()
    assert table <= {f.name for f in dataclasses.fields(cli.Scenario)} | flags
    assert flags - {"--scenario", "--out"} <= table
    assert all(set(kinds) < set(cli._KINDS) for kinds in cli._READ_BY.values())
