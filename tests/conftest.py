"""Shared test configuration.

Hypothesis runs derandomised so every CI run sees the same examples, and
the terminal summary gets one PASS/FAIL line per acceptance criterion.
"""

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import settings

from germinv import milnor
from germinv.poly import Poly

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

# a dense germ, mu = 5, with no corner among its partials' leading monomials:
# the standard-basis engine ran for minutes on it before completion tried J + m^N
NO_CORNER_GERM = ("3*y^2 + x^2*y + x*z^2 - y^3 - y*z^2 + z^3 - 2*x^2*y^2 + 3*x*y^3"
                  " + x*z^3 - 2*z^4 + x^5 + z^5 + y^6")

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


@pytest.fixture
def standard_basis_calls(monkeypatch):
    """Records every standard-basis computation requested through germinv.milnor."""
    calls = []
    original = milnor.standard_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(milnor, "standard_basis", counted)
    return calls


# unimodular integer matrices: each is an invertible change of coordinates
# over the integers, so exact arithmetic keeps every comparison strict
UNIMODULAR_CHANGES = (
    ((1, 1), (0, 1)),
    ((1, 0), (2, 1)),
    ((2, 1), (1, 1)),
    ((1, -1), (1, 1)),
)


def linear_change(f, matrix):
    """f(M z) for a square matrix M of scalars acting on the variables."""
    n = f.nvars
    return f.substitute([sum((Poly.variable(n, j).scale(a) for j, a in enumerate(row)),
                             Poly.zero(n)) for row in matrix])


_FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


@pytest.fixture
def fraction_arithmetic_calls(monkeypatch):
    """Counts calls of Fraction's + - * / (plain and reflected), by name."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in _FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                name = match.group(2).replace("_", " ")
                lines[number] = f"criterion {number:2d} ({name}): {label}"
    if lines:
        terminalreporter.section("acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])
