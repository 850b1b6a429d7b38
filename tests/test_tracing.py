"""The benchmark's trace targets exist in the program.

bench/tracing.py wraps module-level names and methods by name and lists a
missing one as absent, so a renamed or removed target would silently read
zero calls.  This reads its two tables and resolves every entry."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("modname,attr,name", tracing.WRAPPED_FUNCTIONS)
def test_wrapped_function_resolves(modname, attr, name):
    assert callable(getattr(importlib.import_module(modname), attr)), name


@pytest.mark.parametrize("modname,cls,attr,name", tracing.WRAPPED_METHODS)
def test_wrapped_method_resolves(modname, cls, attr, name):
    assert callable(getattr(getattr(importlib.import_module(modname), cls), attr)), name
