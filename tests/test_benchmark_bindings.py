"""Every name the benchmark's tracer wraps must still exist in the package.

``perfbench/tracer.py`` rebinds a list of braidrep functions and methods
for a traced run (``perfbench/run.py --trace 1``).  A deletion or rename in
the package that drops one of them would break that run, so the lists are
read here and each entry resolved.  Loading the tracer imports no braidrep
code.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
