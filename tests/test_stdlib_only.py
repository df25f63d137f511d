"""The runtime is stdlib-only and exact: every source file of the package is
scanned for imports from outside the standard library and for floats.  It is
also scanned for imports it no longer reads, and the package must export
exactly the names its __init__ imports."""

import ast
import sys
from pathlib import Path

import pytest

import beatty_games

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beatty_games"
INEXACT_MATH = {"sqrt", "floor"}


def violations(source: str):
    """(line, what) for each third-party import, float literal, float() call,
    math.sqrt / math.floor and ** 0.5 in the source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [] if node.level else [node.module]
            if node.module == "math":
                out += [(line, f"from math import {a.name}") for a in node.names if a.name in INEXACT_MATH]
        else:
            modules = []
        for module in modules:
            top = module.split(".")[0]
            if top not in sys.stdlib_module_names and top != "beatty_games":
                out.append((line, f"import of {module}"))
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((line, f"float literal {node.value!r}"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append((line, "float() call"))
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in INEXACT_MATH
        ):
            out.append((line, f"math.{node.attr}"))
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 0.5
        ):
            out.append((line, "** 0.5"))
    return out


def test_package_sources_are_stdlib_only_and_exact():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = {f.name: violations(f.read_text()) for f in files}
    assert all(not v for v in found.values()), found


@pytest.mark.parametrize("source", [
    "import numpy",
    "from mpmath import iv",
    "import numpy.linalg as la",
    "x = 1.5",
    "x = 1e3",
    "y = float(3)",
    "import math\ny = math.sqrt(2)",
    "import math\ny = math.floor(2)",
    "from math import sqrt",
    "from math import isqrt, floor",
    "y = 2 ** 0.5",
])
def test_scanner_flags_each_forbidden_form(source):
    assert violations(source)


@pytest.mark.parametrize("source", [
    "import sys, json\nfrom math import gcd, isqrt",
    "from .quadfield import QuadraticNumber",
    "from beatty_games import cli",
    "from fractions import Fraction\nx = Fraction(1, 2) ** 2",
])
def test_scanner_accepts_exact_stdlib_code(source):
    assert violations(source) == []


def unused_imports(source: str):
    """Top-level imported names the module never reads; a name in __all__ is read."""
    tree = ast.parse(source)
    imported = set()
    read = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    read |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_package_sources_keep_no_unused_import():
    found = {f.name: unused_imports(f.read_text()) for f in sorted(PACKAGE.glob("*.py"))}
    assert all(not v for v in found.values()), found


def test_package_exports_exactly_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(imported) == sorted(beatty_games.__all__)


@pytest.mark.parametrize("source, unused", [
    ("import json\nx = 1", ["json"]),
    ("from typing import List, Optional\nx: List[int] = []", ["Optional"]),
    ("import os.path\nx = 1", ["os"]),
    ("from .games import eval_constraint as ev\nx = 1", ["ev"]),
    ("from __future__ import annotations\nimport json\njson.dumps(1)", []),
    ("import os.path\nos.path.join('a')", []),
    ("from .games import SCHEMA\n__all__ = ['SCHEMA']", []),
    ("def f():\n    from json import dumps\n    return 1", []),
])
def test_unused_import_scanner(source, unused):
    assert unused_imports(source) == unused
