"""The benchmark's trace targets and cache names exist in the program.

bench/tracing.py wraps module-level names and methods by name and lists a
missing one as absent, so a renamed or removed target would silently read
zero calls.  This reads its two tables and resolves every entry.  Likewise
bench/run.py's `cache_sizes` reads the process-wide caches with getattr and
a default of 0, so each name it reads is resolved here too."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from wachlab import PrecisionContext, _kernel, wach
from wachlab.aplus import series_kernel

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("modname,attr,name", tracing.WRAPPED_FUNCTIONS)
def test_wrapped_function_resolves(modname, attr, name):
    assert callable(getattr(importlib.import_module(modname), attr)), name


@pytest.mark.parametrize("modname,cls,attr,name", tracing.WRAPPED_METHODS)
def test_wrapped_method_resolves(modname, cls, attr, name):
    assert callable(getattr(getattr(importlib.import_module(modname), cls), attr)), name


def test_cache_names_resolve():
    # every getattr(owner, "name", default) in cache_sizes: the owner is a
    # module, or `k`, a kernel of `_kernel._kernels`
    tree = ast.parse((BENCH / "run.py").read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "cache_sizes")
    reads = [(call.args[0].id, call.args[1].value) for call in ast.walk(fn)
             if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"]
    assert sorted(attr for _, attr in reads) == ["_ingredient_cache", "_kernels", "_tables"]
    owners = {"wach": wach, "_kernel": _kernel,
              "k": series_kernel(PrecisionContext(3, 2), 4)}
    for owner, attr in reads:
        assert isinstance(getattr(owners[owner], attr), dict), (owner, attr)
