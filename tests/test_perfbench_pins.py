"""perfbench's tracer wraps germinv functions and methods by name.  Loading
and installing it here makes a deletion or rename of any of them fail these
tests, not only the benchmark."""

import importlib.util
import sys
from pathlib import Path

import germinv.cli  # noqa: F401  loads corpus and cli, which germinv/__init__ does not
from germinv.gaussian import GaussianRational
from germinv.poly import Poly

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """The attributes of every owner the tracer may patch."""
    owners = [m for name, m in sys.modules.items()
              if name == "germinv" or name.startswith("germinv.")]
    return {owner: dict(vars(owner)) for owner in owners + [Poly, GaussianRational]}


def test_the_tracer_wraps_every_name_it_needs_and_restores_them():
    tracer_module = load_tracer()
    before = namespaces()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for module, func in tracer_module.SPANNED.values():
            owner = sys.modules[module]
            assert getattr(owner, func) is not before[owner][func], func
        assert Poly.__mul__ is not before[Poly]["__mul__"]
    finally:
        tracer.remove()
    assert Poly.__mul__ is before[Poly]["__mul__"]
    assert namespaces() == before
