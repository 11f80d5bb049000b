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

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

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
