"""Every name the benchmark's tracer wraps or its workloads call must still exist.

``perfbench/tracer.py`` rebinds a list of braidrep functions and methods
for a traced run (``perfbench/run.py --trace 1``), and
``perfbench/workloads.py`` calls braidrep through module attributes such as
``families.theorem1_i``.  A deletion or rename in the package that drops one
of them would break a benchmark run, so the tracer's lists are read here,
the workloads' names are read from their source with ``ast``, and each
entry is resolved.  Neither step imports benchmark code that imports
braidrep.
"""

import ast
import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("entry", tracer.FUNCTIONS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_traced_function_resolves(entry):
    _, modname, attr, _ = entry
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("entry", tracer.METHODS, ids=lambda e: f"{e[2]}.{e[3][0]}")
def test_traced_methods_are_defined_on_their_class(entry):
    _, modname, clsname, methods, _ = entry
    cls = getattr(importlib.import_module(modname), clsname)
    assert [m for m in methods if m not in cls.__dict__] == []


def _workload_names():
    """Dotted names like ``fields.RatFunc.gen`` rooted at a module that
    ``workloads.py`` imports with ``from braidrep import ...``."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "braidrep"
               for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in modules:
            names.add(".".join([modules[node.id]] + parts[::-1]))
    return sorted(names)


def test_workloads_use_braidrep_names():
    assert {"families.theorem1_i", "fields.Omega", "suite.ALL_CHECKS"} <= set(_workload_names())


@pytest.mark.parametrize("name", _workload_names())
def test_workload_name_resolves(name):
    root, *attrs = name.split(".")
    reduce(getattr, attrs, importlib.import_module(f"braidrep.{root}"))
