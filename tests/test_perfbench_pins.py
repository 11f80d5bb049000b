"""perfbench's tracer wraps germinv functions and methods by name, and its
workloads import germinv names.  Loading and installing the tracer here, and
resolving every name the workloads read, makes a deletion or rename of any
of them fail these tests, not only the benchmark."""

import ast
import importlib.util
import pkgutil
import sys
from pathlib import Path

import germinv.cli  # noqa: F401  loads corpus and cli, which germinv/__init__ does not
from germinv import localring
from germinv.gaussian import GaussianRational
from germinv.poly import Poly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load(name, path, monkeypatch=None):
    """The module at path, in sys.modules for the test when monkeypatch is given."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("perfbench_tracer", TRACER)


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


def germinv_names(path):
    """The dotted germinv names a perfbench file reads: each name of a
    `from germinv... import`, and each attribute read off a germinv module
    it imported whole.  The file is parsed, not imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "germinv":
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                names.add(dotted)
                modules[alias.asname or alias.name] = dotted
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "germinv":  # `import a.b` binds a, `import a.b as c` binds c
                    modules[alias.asname or top] = alias.name if alias.asname else top
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add(".".join([modules[node.id]] + chain[::-1]))
    return names


def test_every_germinv_name_perfbench_imports_resolves():
    names = set()
    for script in ("workloads.py", "tracer.py"):
        names |= germinv_names(PERFBENCH / script)
    assert "germinv.milnor.oracle_dmax_for" in names  # attribute reads are seen
    for name in sorted(names):
        pkgutil.resolve_name(name)  # raises if the module or attribute is gone


def test_the_dense_panel_takes_at_most_384_reduction_steps(monkeypatch):
    # a deterministic work pin: in-process timings of identical code swing
    # 1.5-2x between runs, the reduction steps of the 36 panel germs at
    # max_steps=150 do not (384 with completion's first N = 8; N = 4 would
    # take 521)
    load("golden", PERFBENCH / "golden.py", monkeypatch)  # workloads imports it by that name
    workloads = load("perfbench_workloads", PERFBENCH / "workloads.py", monkeypatch)
    steps = []
    spend = localring._Budget.spend

    def counted(budget):
        steps.append(budget)
        spend(budget)

    monkeypatch.setattr(localring._Budget, "spend", counted)
    ops = next(workloads.dense_passes(seed=1))
    assert len(ops) == workloads.DENSE_PANEL == 36 and workloads.DENSE_MAX_STEPS == 150
    for op in ops:
        op()
    assert len(steps) <= 384
