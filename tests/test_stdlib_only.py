"""The runtime is stdlib-only and exact: every source file of the package is
scanned for imports from outside the standard library and for floats."""

import ast
import sys
from pathlib import Path

import pytest

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
