"""Static guard: no floating-point arithmetic anywhere in the package source.

Every number germinv prints is exact, so the source must not reach for
floats, complex numbers, decimals or float-valued helpers.  The guard reads
each module's syntax tree; it does not import or run anything.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "germinv"

# the integer functions of math that the package uses
MATH_ALLOWED = {"gcd", "lcm", "comb"}
FORBIDDEN_MODULES = {"cmath", "decimal", "statistics"}
FORBIDDEN_NAMES = {"float", "complex"}
# random.Random's float-valued draws
FLOAT_DRAWS = {"random", "uniform", "triangular", "gauss", "normalvariate",
               "lognormvariate", "expovariate", "vonmisesvariate", "gammavariate",
               "betavariate", "paretovariate", "weibullvariate"}
# true division is exact on Fractions and triples, so it lives in one module
DIVISION_ALLOWED = {"gaussian.py"}


def violations(tree: ast.AST, filename: str) -> list[str]:
    """Each construct of tree that could bring in inexact arithmetic."""
    found = []

    def flag(node, what):
        found.append(f"{filename}:{node.lineno}: {what}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            flag(node, f"{type(node.value).__name__} literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            flag(node, f"name {node.id!r}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in FORBIDDEN_MODULES or root == "math":
                    flag(node, f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root = (node.module or "").split(".")[0]
            names = {alias.name for alias in node.names}
            if root in FORBIDDEN_MODULES:
                flag(node, f"import from {node.module}")
            elif root == "math" and not names <= MATH_ALLOWED:
                flag(node, f"math import of {sorted(names - MATH_ALLOWED)}")
            elif root == "operator" and names & {"truediv", "itruediv"}:
                flag(node, "operator.truediv")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in FLOAT_DRAWS):
            flag(node, f"float draw .{node.func.attr}()")
        elif (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
              and filename not in DIVISION_ALLOWED):
            flag(node, "true division")
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_source_has_no_inexact_arithmetic(path):
    assert violations(ast.parse(path.read_text(), str(path)), path.name) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "x = 2j",
    "x = 1e3",
    "x = float(y)",
    "x = complex(1, 2)",
    "isinstance(y, float)",
    "import math",
    "import cmath",
    "import decimal",
    "from decimal import Decimal",
    "import statistics",
    "from math import sqrt",
    "from math import gcd, log",
    "from operator import truediv",
    "x = rng.random()",
    "x = random.uniform(0, 1)",
    "x = rng.gauss(0, 1)",
    "x = a / b",
    "x /= 2",
])
def test_the_guard_refuses_each_inexact_construct(snippet):
    assert len(violations(ast.parse(snippet), "poly.py")) == 1


@pytest.mark.parametrize("snippet", [
    "from math import gcd, lcm, comb",
    "x = a // b",
    "x = rng.randint(0, 9)",
    "x = rng.choice(items)",
    "from fractions import Fraction",
    "x = 'float'",
])
def test_the_guard_accepts_exact_constructs(snippet):
    assert violations(ast.parse(snippet), "poly.py") == []
